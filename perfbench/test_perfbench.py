"""Tests of the benchmark itself: schema, exact counts, tracing, failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q

The count tests run the tiny smoke variants, each pass in a fresh process,
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import one_pass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import SMOKE, Workload  # noqa: E402

# Counts a pass makes at its layer boundaries.  snapshots.bytes_written is
# exact for one seed, but not across seeds: the CSV's 17-digit decimals and the
# manifest's seed line change length with the values.
SEED_FREE_COUNTS = ("hull.modes", "hull.grid_points", "hull.bytes_per_transform",
                    "hull.inverse_calls_per_step", "hull.forward_calls_per_step",
                    "stepper.steps", "diagnostics.records", "snapshots.writes",
                    "trace.spans")


def _traced_pass(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    deadline = run.time.monotonic() + run.RUN_BUDGET_S
    if SMOKE[name].restart:
        run.child([name, seed, 0, workdir / "prep", "--smoke", "--prepare"], deadline)
    out = []
    for i in range(2 if seed == 0 else 1):
        out.append(run.child([name, seed, 1, workdir / f"pass{i}", "--smoke"], deadline))
    return out


def test_benchmark_json_is_well_formed():
    spec = json.loads(run.SPEC.read_text())
    assert run.check_spec(spec) == []


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_counts_repeat_and_do_not_depend_on_the_seed(name, tmp_path):
    first, again = _traced_pass(name, 0, tmp_path)
    (other,) = _traced_pass(name, 1, tmp_path)
    for p in (first, again, other):
        assert p["ok"], p
        assert p["wrappers_left"] == []
    for key in SEED_FREE_COUNTS + ("snapshots.bytes_written",):
        assert first["layers"][key] == again["layers"][key], key
    for key in SEED_FREE_COUNTS:
        assert first["layers"][key] == other["layers"][key], key
    assert first["final"] == again["final"]
    assert first["final"] != other["final"]


def test_wrappers_replace_every_binding_and_are_restored():
    from quasiflow import cli, snapshots, symmetry

    originals = (symmetry.generate_frequency_module, snapshots.generate_frequency_module,
                 cli.generate_frequency_module)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = (symmetry.generate_frequency_module, snapshots.generate_frequency_module,
                   cli.generate_frequency_module)
        assert all(hasattr(w, tracing.MARK) for w in wrapped)
        assert tracing.surviving_wrappers()
    finally:
        tracer.uninstall()
    assert (symmetry.generate_frequency_module, snapshots.generate_frequency_module,
            cli.generate_frequency_module) == originals
    assert tracing.surviving_wrappers() == []


def test_module_rebuild_inside_a_snapshot_read_is_traced(tmp_path):
    workload = SMOKE["sh12-recorded"]
    snap = tmp_path / "restart.qcs"
    one_pass.prepare_restart(workload, 0, snap)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        one_pass.run_pass(workload.config_text(0, str(snap)), tmp_path / "out", tracer)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    reads = [i for i, s in enumerate(tracer.spans) if s[0] == "snapshots.read_snapshot"]
    assert len(reads) == 1
    inside = [s[0] for s in tracer.spans if s[3] == reads[0]]
    assert "symmetry.generate_frequency_module" in inside
    assert "hull.ActiveModeSet" in inside
    assert "config.parse_config" in inside
    assert names.count("hull.ActiveModeSet") == 2


def test_a_blow_up_is_a_failed_run_and_the_harness_goes_on(tmp_path, monkeypatch):
    # an explicit cubic with dt = 100 overshoots to overflow within a few steps
    blowup = Workload("blowup", dict(SMOKE["sh12-recorded"].keys, dt="100", diag_every=1000),
                      steps=20)
    monkeypatch.setitem(one_pass.SMOKE, "blowup", blowup)
    bad = one_pass.main(["blowup", "0", "0", str(tmp_path / "bad"), "--smoke"])
    good = one_pass.main(["bruss12-onset", "0", "0", str(tmp_path / "good"), "--smoke"])
    assert not bad["ok"] and bad["error"].startswith("NonFiniteState")
    assert good["ok"]

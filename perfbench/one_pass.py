"""One cold pass of a workload, in a process of its own.

    python3 perfbench/one_pass.py WORKLOAD SEED TRACE WORKDIR [--smoke] [--prepare]

A pass is what ``quasiflow simulate-sh`` / ``simulate-bruss`` does, in the
same order of calls as ``cli._run_simulation``, through the same ``cli``
helpers: parse the config, build the frequency module and the active set, set
up the initial condition and the state, integrate, then write
``diagnostics.csv`` and ``final.qcs``.  The one addition is an explicit
``state.tables()`` before integrating, so that the ETD tables are timed as
set-up rather than inside the first step.

With TRACE = 1 the entry points are wrapped for the pass (see tracing.py) and
the spans are written to WORKDIR/spans.json when it ends.  ``--prepare``
writes the restart snapshot a workload starts from, and times nothing.

The last line of standard output is one JSON object.  A pass that raises,
produces non-finite output or fails its correctness gate reports
``"ok": false``; the process still exits 0.  Any other exit code means the
pass could not be run at all.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import quasiflow  # noqa: E402
from quasiflow import brusselator, cli, config, diagnostics, sh, snapshots  # noqa: E402

import tracing  # noqa: E402
from workloads import RESTART_PREP_STEPS, SMOKE, WORKLOADS  # noqa: E402

if Path(quasiflow.__file__).resolve().parent != SRC / "quasiflow":
    sys.exit(f"quasiflow imported from {quasiflow.__file__}, not from {SRC}")

SYMMETRY_TOL = 1e-10  # check_symmetry_preservation's stated tolerance
POSITIVITY_FLOOR = -1e-6  # battery check 15c
POSITIVITY_GRID = 32  # points per torus axis for the final positivity sample
REFERENCE = HERE / "reference.json"
# Agreement of the final record with the stored seed-0 values, at round-off.
# grad_hull_sq is blind to the zero mode, so on the Brusselator it follows the
# O(1e-5) perturbation that l2 and energy (zero there) cannot resolve; round-off
# of the O(1) steady state, summed over the pass, is ~1e-8 of that perturbation.
FINAL_RTOL = {"l2": 1e-10, "energy": 1e-10, "grad_hull_sq": 1e-6}


def run_pass(text: str, outdir: Path, tracer=None) -> dict:
    """Run one configuration; returns its phase times, final state and trajectory."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter()
    with span("phase.setup"):
        cfg = config.parse_config(text)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "config.txt").write_text(config.to_text(cfg), encoding="ascii")
        active = cli._build_active(cfg)
        hook = cli._snapshot_hook(outdir, cfg)
        with span("phase.ic"):
            if cfg.equation == "sh":
                field = cli._sh_initial_field(cfg, active)
                state = sh.make_state(field, cfg.lam, scheme=cfg.scheme, dt=cfg.dt,
                                      dealias=cfg.dealias)
            else:
                params = brusselator.BrusselatorParams(A=cfg.A, B=cfg.B, d1=cfg.d1, d2=cfg.d2)
                u, v = cli._bruss_initial_fields(cfg, active, params)
                state = brusselator.make_bruss_state(u, v, params, dt=cfg.dt,
                                                     dealias=cfg.dealias)
        state.tables()
    t1 = time.perf_counter()
    with span("phase.integrate"):
        integrate = sh.integrate if cfg.equation == "sh" else brusselator.bruss_integrate
        final, traj = integrate(state, cfg.T, hooks=(hook,), diag_every=cfg.diag_every,
                                s=cfg.s)
    t2 = time.perf_counter()
    with span("phase.output"):
        snapshots.write_diagnostics_csv(traj, outdir / "diagnostics.csv")
        snapshots.write_snapshot(final, outdir / "final.qcs", cfg)
    t3 = time.perf_counter()
    steps = final.step_index - state.step_index
    return {
        "cfg": cfg, "final": final, "traj": traj, "steps": steps,
        "setup_s": t1 - t0, "integrate_s": t2 - t1, "output_s": t3 - t2,
        "run_s": t3 - t0, "steps_per_s": steps / (t2 - t1),
        "wall_ns": int((t3 - t0) * 1e9),
    }


def gate(cfg, final, traj) -> list[str]:
    """Names of the correctness checks this pass failed."""
    coeffs = [final.field.coeffs] if cfg.equation == "sh" else \
        [final.u_field.coeffs, final.v_field.coeffs]
    failed = [] if all(np.all(np.isfinite(c.view(float))) for c in coeffs) \
        else ["finite-final-state"]
    reports = [diagnostics.check_symmetry_preservation(traj, SYMMETRY_TOL)]
    if cfg.equation == "sh":
        ball = diagnostics.check_absorbing_ball(traj, cfg.lam)
        if ball.name != "ball-invariance":
            failed.append("initial-state-inside-ball")
        reports += [ball, diagnostics.check_lyapunov(traj)[0],
                    diagnostics.check_energy_inequality(traj, cfg.lam)]
    else:
        low = min(*brusselator.positivity_check(final, POSITIVITY_GRID),
                  min(traj.column("min_u")), min(traj.column("min_v")))
        if not low >= POSITIVITY_FLOOR:
            failed.append("positivity")
    failed += [r.name for r in reports if not r.passed]
    return failed


def reference_mismatch(name: str, last) -> list[str]:
    ref = json.loads(REFERENCE.read_text())[name]
    return [key for key, rtol in FINAL_RTOL.items()
            if not abs(getattr(last, key) - ref[key]) <= rtol * abs(ref[key])]


def prepare_restart(workload, seed: int, path: Path) -> None:
    """The snapshot a restart workload reads: the seeded pattern, stepped a little."""
    cfg = config.parse_config(replace(workload, restart=False).config_text(seed))
    field = cli._sh_initial_field(cfg, cli._build_active(cfg))
    state = sh.make_state(field, cfg.lam, scheme="etdrk2", dt=cfg.dt)
    for _ in range(RESTART_PREP_STEPS):
        state = sh.step(state)
    path.parent.mkdir(parents=True, exist_ok=True)
    snapshots.write_snapshot(state, path)


def main(argv) -> dict:
    name, seed, traced, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    smoke = "--smoke" in argv
    workload = (SMOKE if smoke else WORKLOADS)[name]
    restart_path = workdir.parent / "restart.qcs"
    if "--prepare" in argv:
        prepare_restart(workload, seed, restart_path)
        return {"ok": True}
    text = workload.config_text(seed, str(restart_path))
    tracer = tracing.Tracer() if traced else None
    result = {"ok": False, "traced": traced}
    if tracer:
        tracer.install()
    try:
        try:
            out = run_pass(text, workdir / "out", tracer)
        finally:
            if tracer:
                tracer.uninstall()
                result["wrappers_left"] = tracing.surviving_wrappers()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = out["traj"].records[-1]
        failed = gate(out["cfg"], out["final"], out["traj"])
        if seed == 0 and not smoke:
            failed += [f"reference-{k}" for k in reference_mismatch(name, last)]
    except Exception as exc:  # a failed run is counted, and the harness goes on
        result["error"] = f"{type(exc).__name__}: {exc}"
        return result
    for key in ("setup_s", "integrate_s", "output_s", "run_s", "steps", "steps_per_s"):
        result[key] = out[key]
    result["final"] = {k: getattr(last, k) for k in FINAL_RTOL}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, out["wall_ns"])
        result["span_table"] = tracing.span_table(tracer.spans)
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
        if result["wrappers_left"]:
            failed.append("wrappers-restored")
    result["failed_checks"] = failed
    result["ok"] = not failed
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))

"""Command-line entry points: exit codes, outputs, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiflow import brusselator as br
from quasiflow import cli, config, hull, sh, snapshots
from quasiflow.etd import SCHEMES
from quasiflow.hull import ActiveModeSet
from quasiflow.symmetry import build_holohedry, generate_frequency_module
from quasiflow.verification import VERTEX_K0

SH_CFG = """\
symmetry = dihedral:12
equation = sh
lam = 0.2
N = 1
T = 0.3
dt = 0.01
diag_every = 10
ic = quasicrystal
ic_amplitude = 0.5
perturbation = 0.001
seed = 0
"""

BRUSS_CFG = """\
symmetry = dihedral:12
equation = brusselator
A = 2
B = 4.2
d1 = 1
d2 = 4
N = 1
T = 0.2
dt = 0.01
diag_every = 10
ic = steady-plus-critical
perturbation = 1e-4
"""


@pytest.fixture()
def sh_cfg(tmp_path):
    path = tmp_path / "sh.cfg"
    path.write_text(SH_CFG)
    return path


@pytest.fixture()
def bruss_cfg(tmp_path):
    path = tmp_path / "br.cfg"
    path.write_text(BRUSS_CFG)
    return path


class TestSimulateSH:
    def test_produces_outputs(self, tmp_path, sh_cfg, capsys):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(sh_cfg),
                         "--output", str(out)])
        assert code == 0
        assert (out / "config.txt").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "final.qcs").exists()
        assert "diagnostics.csv" in capsys.readouterr().out

    def test_csv_has_expected_records(self, tmp_path, sh_cfg):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(out)])
        cols = snapshots.read_diagnostics_csv(out / "diagnostics.csv")
        # T = 0.3, dt = 0.01, diag_every = 10: records at 0, 0.1, 0.2, 0.3
        assert cols["t"].shape == (4,)
        assert np.allclose(cols["t"], [0.0, 0.1, 0.2, 0.3], atol=1e-12)

    def test_final_snapshot_reloads(self, tmp_path, sh_cfg):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(out)])
        state, cfg = snapshots.read_snapshot(out / "final.qcs")
        assert state.step_index == 30
        assert cfg.lam == 0.2

    def test_config_echo_reparses(self, tmp_path, sh_cfg):
        from quasiflow.config import parse_config

        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(out)])
        cfg = parse_config((out / "config.txt").read_text())
        assert cfg.T == 0.3 and cfg.N == 1

    def test_snapshot_cadence(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "snapshot_every = 10\n")
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(cfg), "--output", str(out)])
        names = sorted(p.name for p in out.glob("snapshot_*.qcs"))
        assert names == [
            "snapshot_00000000.qcs", "snapshot_00000010.qcs",
            "snapshot_00000020.qcs", "snapshot_00000030.qcs",
        ]

    def test_deterministic_bytes(self, tmp_path, sh_cfg):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(a)])
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(b)])
        assert (a / "diagnostics.csv").read_bytes() == \
            (b / "diagnostics.csv").read_bytes()
        assert (a / "final.qcs").read_bytes() == (b / "final.qcs").read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", str(tmp_path / "no.cfg"),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "dt = -1\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        assert "dt" in capsys.readouterr().err

    def test_infinite_horizon_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "T = inf\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "T = 'inf'" in err[0]

    def test_huge_truncation_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "N = 1000000000000\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "index box" in err[0]

    def test_huge_holohedry_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "symmetry = dihedral:100000\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "order 200000" in err[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("equation_cfg", [SH_CFG, BRUSS_CFG], ids=["sh", "bruss"])
    def test_overflowing_step_count_is_one_error_line(self, tmp_path, capsys, equation_cfg):
        # T / dt = inf is refused before any step, naming the quotient
        cfg = tmp_path / "c.cfg"
        cfg.write_text(equation_cfg + "T = 1e300\ndt = 1e-300\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: T / dt = 1e+300 / 1e-300 ")
        assert not (tmp_path / "x" / "final.qcs").exists()

    def test_blow_up_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "dt = 100\nT = 1000\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "blow-up after 1 full steps" in err[0]
        # the record taken before the blow-up is kept
        csv = snapshots.read_diagnostics_csv(tmp_path / "x" / "diagnostics.csv")
        assert list(csv["t"]) == [0.0]

    def test_exhausted_relation_search_is_one_error_line(self, tmp_path, capsys):
        # the dihedral:22 module has rank 10: its relation search is refused
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "symmetry = dihedral:22\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "relation search" in err[0]


@st.composite
def small_runs(draw):
    """Run configs of a few steps at N <= 2 (icosahedral N <= 1), keeping
    draws that cannot run: cyclic:5 (odd order), a k0 of any length."""
    eq = draw(st.sampled_from(config.EQUATIONS))
    symmetry = draw(st.sampled_from(["dihedral:8", "dihedral:12", "cyclic:5", "icosahedral"]))
    dt = draw(st.floats(0.01, 0.2))
    kw = dict(
        symmetry=symmetry,
        equation=eq,
        N=draw(st.integers(0, 1 if symmetry == "icosahedral" else 2)),
        dt=dt,
        T=dt * draw(st.integers(0, 3)),
        scheme=draw(st.sampled_from(SCHEMES)),
        diag_every=draw(st.integers(1, 3)),
        perturbation=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2 ** 31)),
        s=draw(st.floats(0.5, 9.0)),
    )
    kw["snapshot_every"] = kw["diag_every"] * draw(st.integers(0, 2))
    if eq == "sh":
        kw["lam"] = draw(st.floats(-2.0, 2.0))
        kw["ic"] = draw(st.sampled_from(["quasicrystal", "random"]))
        kw["ic_amplitude"] = draw(st.floats(0.01, 1.0))
    else:
        kw["A"] = draw(st.floats(0.1, 5.0))
        kw["B"] = draw(st.floats(0.1, 9.0))
        kw["d1"] = draw(st.floats(0.05, 4.0))
        kw["d2"] = draw(st.floats(0.05, 4.0))
        kw["ic"] = "steady-plus-critical"
    if draw(st.booleans()):
        k0 = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(draw(st.integers(2, 4)))])
        if draw(st.booleans()) and np.linalg.norm(k0) > 0.1:
            k0 /= np.linalg.norm(k0)  # a unit vector, mostly off the axes
        kw["k0"] = tuple(k0.tolist())
    return config.RunConfig(**kw).validate()


class TestCleanFailures:
    @pytest.mark.parametrize("base", [SH_CFG, BRUSS_CFG], ids=["sh", "brusselator"])
    def test_zero_truncation_is_one_error_line(self, tmp_path, capsys, base):
        # N = 0 keeps the zero mode alone, so the pattern seed has no orbit
        cfg = tmp_path / "c.cfg"
        cfg.write_text(base + "N = 0\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "N = 0" in err[0]

    @pytest.mark.parametrize("lam,perturbation", [("5e-324", "0.5"), ("1e-310", "0.5"),
                                                  ("0.2", "1e200")],
                             ids=["underflow", "subnormal", "overflow"])
    def test_unscalable_pattern_seed_is_one_error_line(self, tmp_path, capsys, lam,
                                                       perturbation):
        # the perturbed seed is rescaled by its l2 norm; at lam = 5e-324 its
        # squares underflow to 0, at 1e-310 they lose digits, and at a
        # perturbation of 1e200 they overflow and the seed rescales to 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG.replace("lam = 0.2", f"lam = {lam}")
                       .replace("perturbation = 0.001", f"perturbation = {perturbation}"))
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: lam = {float(lam)!r} with perturbation")

    def test_overflowing_record_names_its_column(self, tmp_path, capsys):
        # at N = 2 the Sobolev weights (|m|^2 + 1)^400 reach 17^400 and
        # overflow, so the first record's hs is not finite: the error line
        # names the column, not a blow-up alone
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SH_CFG + "N = 2\ns = 400\n")
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == ("error: non-finite diagnostics (hs) at t = 0 (step 0) "
                          "(blow-up after 0 full steps)")

    @given(small_runs())
    @settings(max_examples=40, deadline=None)
    def test_simulate_succeeds_or_prints_one_error_line(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cfg"
            path.write_text(config.to_text(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["simulate", "--config", str(path),
                                 "--output", str(Path(tmp) / "out")])
        # the one warning a run may give is the advice on lam above 1; any
        # other warning, or an exception, fails the test
        assert all(cfg.equation == "sh" and cfg.lam > 1.0
                   and "bifurcation parameter above 1" in str(w.message) for w in caught)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        assert (code, errors) == (0, []) or (code == 1 and len(errors) == 1)


class TestSimulateBruss:
    def test_produces_two_component_csv(self, tmp_path, bruss_cfg):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(bruss_cfg),
                         "--output", str(out)])
        assert code == 0
        header = (out / "diagnostics.csv").read_bytes().split(b"\n")[0]
        assert header.endswith(b",min_v,max_v")

    def test_final_snapshot_reloads(self, tmp_path, bruss_cfg):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(bruss_cfg),
                  "--output", str(out)])
        state, cfg = snapshots.read_snapshot(out / "final.qcs")
        assert state.params.B == 4.2
        assert state.u_field.active is state.v_field.active

    def test_zero_perturbation_seeds_nothing(self, tmp_path):
        # perturbation = 0 starts on the steady state itself: no critical-orbit
        # amplitude at t = 0, and the echo names the 0 that ran
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BRUSS_CFG.replace("perturbation = 1e-4", "perturbation = 0"))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        cols = snapshots.read_diagnostics_csv(out / "diagnostics.csv")
        assert cols["t"][0] == 0.0 and np.all(cols["grad_hull_sq"] == 0.0)
        assert "perturbation = 0\n" in (out / "config.txt").read_text()

    def test_omitted_perturbation_runs_and_echoes_the_default(self, tmp_path):
        # no key and an explicit 1e-6 are the same run, echo and snapshot alike
        outs = []
        for i, text in enumerate((BRUSS_CFG.replace("perturbation = 1e-4\n", ""),
                                  BRUSS_CFG.replace("1e-4", "1e-6"))):
            cfg = tmp_path / f"c{i}.cfg"
            cfg.write_text(text)
            outs.append(tmp_path / f"run{i}")
            assert cli.main(["simulate", "--config", str(cfg), "--output", str(outs[-1])]) == 0
        for name in ("config.txt", "diagnostics.csv", "final.qcs"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        grad = snapshots.read_diagnostics_csv(outs[0] / "diagnostics.csv")["grad_hull_sq"]
        assert grad[0] > 0.0

    def test_etdrk4_run_round_trips_its_scheme(self, tmp_path):
        from quasiflow.config import parse_config

        cfg = tmp_path / "c.cfg"
        cfg.write_text(BRUSS_CFG + "scheme = etdrk4\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 0
        assert parse_config((out / "config.txt").read_text()).scheme == "etdrk4"
        state, snap_cfg = snapshots.read_snapshot(out / "final.qcs")
        assert state.scheme == snap_cfg.scheme == "etdrk4"
        assert state.step_index == 20


def _twelvefold(N):
    module = generate_frequency_module(build_holohedry("dihedral:12"))
    return ActiveModeSet(module, N)


class TestRestart:
    """``ic = file:`` restarts only on the truncation the snapshot was run on."""

    def _restart_cfg(self, tmp_path, base, ic_line, snap, N):
        # the snapshot is written without a config, so its manifest names k0
        # explicitly where these run configs leave it at the default
        text = base.replace(ic_line, f"ic = file:{snap}").replace("N = 1", f"N = {N}")
        path = tmp_path / "restart.cfg"
        path.write_text(text)
        return path

    def _sh_snapshot(self, tmp_path):
        snap = tmp_path / "n1.qcs"
        state = sh.make_state(sh.random_ic(_twelvefold(1), 0.1, seed=1), 0.2)
        snapshots.write_snapshot(state, snap)
        return snap, state

    def test_same_truncation_continues(self, tmp_path):
        snap, state = self._sh_snapshot(tmp_path)
        cfg = self._restart_cfg(tmp_path, SH_CFG, "ic = quasicrystal", snap, 1)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        back, _ = snapshots.read_snapshot(out / "final.qcs")
        want, _ = sh.integrate(state, 0.3)
        assert np.array_equal(back.coeffs, want.coeffs)

    def test_sh_other_truncation_refused(self, tmp_path, capsys):
        snap, _ = self._sh_snapshot(tmp_path)
        cfg = self._restart_cfg(tmp_path, SH_CFG, "ic = quasicrystal", snap, 2)
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "49 modes" in err and "361 modes" in err
        assert not (out / "final.qcs").exists()

    def test_bruss_other_truncation_refused(self, tmp_path, capsys):
        p = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
        snap = tmp_path / "b1.qcs"
        snapshots.write_snapshot(
            br.make_bruss_state(*br.steady_ic(_twelvefold(1), p), p), snap
        )
        cfg = self._restart_cfg(tmp_path, BRUSS_CFG, "ic = steady-plus-critical", snap, 2)
        code = cli.main(["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "run")])
        assert code == 1
        assert "361 modes" in capsys.readouterr().err

    def test_one_active_set_per_restart(self, tmp_path, monkeypatch):
        snap, _ = self._sh_snapshot(tmp_path)
        cfg = self._restart_cfg(tmp_path, SH_CFG, "ic = quasicrystal", snap, 1)
        builds = []
        init = ActiveModeSet.__init__

        def counted(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(ActiveModeSet, "__init__", counted)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("old,new", [
        ("symmetry = dihedral:12", "symmetry = cyclic:12"),
        ("symmetry = dihedral:12", f"symmetry = dihedral:12\nk0 = {np.cos(0.1):.17g} "
                                   f"{np.sin(0.1):.17g}"),
    ], ids=["holohedry", "k0"])
    def test_other_module_refused(self, tmp_path, capsys, old, new):
        snap, _ = self._sh_snapshot(tmp_path)
        cfg = self._restart_cfg(tmp_path, SH_CFG.replace(old, new), "ic = quasicrystal",
                                snap, 1)
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot's active set (49 modes, N = 1) is not the run's")
        assert err.count("\n") == 1
        assert not (out / "final.qcs").exists()

    def test_rank6_restart_continues(self, tmp_path):
        module = generate_frequency_module(build_holohedry("icosahedral"), VERTEX_K0)
        state = sh.make_state(sh.random_ic(ActiveModeSet(module, 1), 0.1, seed=1), 0.2)
        snap = tmp_path / "v1.qcs"
        snapshots.write_snapshot(state, snap)
        vertex = SH_CFG.replace(
            "symmetry = dihedral:12",
            "symmetry = icosahedral\nk0 = " + " ".join(f"{x:.17g}" for x in VERTEX_K0),
        )
        cfg = self._restart_cfg(tmp_path, vertex, "ic = quasicrystal", snap, 1)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        back, _ = snapshots.read_snapshot(out / "final.qcs")
        want, _ = sh.integrate(state, 0.3)
        assert back.coeffs.tobytes() == want.coeffs.tobytes()


class TestTuring:
    def test_reference_triple(self, capsys):
        code = cli.main(["turing", "--A", "2", "--d1", "0.25", "--d2", "1"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "eta = 0.5"
        assert out[1] == "B_c = 4"
        assert out[2] == "k_c = 2"
        assert out[3].startswith("eigenvector = -0.894")
        assert out[4] == "turing_first = true"

    def test_rejects_nonpositive(self, capsys):
        code = cli.main(["turing", "--A", "-2", "--d1", "1", "--d2", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    # a warning is an error here: the error line must be the only output
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("changed,named", [
        pytest.param(changed, named, id="-".join(x for kv in changed.items() for x in kv))
        for changed, named in [
            ({"--A": "nan"}, "must be finite"), ({"--A": "inf"}, "must be finite"),
            ({"--d1": "nan"}, "must be finite"), ({"--d1": "1e300"}, "never turns negative"),
            # finite, but B_c = (1 + A eta)^2 overflows
            ({"--A": "1e200"}, "B_c = (1 + A eta)^2 out of range"),
            # finite, but the determinant overflows on the way to its minimum
            ({"--d1": "1e-300", "--d2": "1e300"}, "determinant out of range"),
            # finite, but the determinant's coefficient d1 A^2 overflows
            ({"--A": "1e150", "--d1": "1e10", "--d2": "1e10"}, "determinant out of range"),
            # finite, but d1/d2 overflows, so eta and B_c would print as inf
            ({"--A": "1.9590873058845675e-251", "--d1": "3.165595946437299e+51",
              "--d2": "9.436336805736764e-273"}, "eta = sqrt(d1/d2) out of range"),
        ]
    ])
    def test_unusable_parameters_are_one_error_line(self, capsys, changed, named):
        args = {"--A": "2", "--d1": "1", "--d2": "4", **changed}
        code = cli.main(["turing"] + [x for kv in args.items() for x in kv])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        # one line, naming what is unusable
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]

    @pytest.mark.filterwarnings("error")
    def test_small_onset_wavenumber_is_quiet(self, capsys):
        # k_c^2 = 5e-6: the scan agrees with the closed forms, so no warning
        code = cli.main(["turing", "--A", "1e-5", "--d1", "1", "--d2", "4"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_any_triple_is_a_finite_report_or_one_error_line(self):
        rng = np.random.default_rng(29)
        triples = [tuple(map(float, 10.0 ** rng.uniform(-300, 300, 3))) for _ in range(2000)]
        # a ZeroDivisionError and a root solve that did not converge, once
        triples += [(1.1935328151791514e-95, 1.590646964667518e+26, 5.999721188315358e-183),
                    (6.436709389371743e-31, 1.0288073681160817e+37, 3.8456160082976234e-82)]
        for A, d1, d2 in triples:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main(["turing", "--A", repr(A), "--d1", repr(d1), "--d2", repr(d2)])
            case = f"--A {A!r} --d1 {d1!r} --d2 {d2!r}"
            if code == 0:
                lines = out.getvalue().splitlines()
                assert len(lines) == 5 and err.getvalue() == "", case
                values = [float(v) for line in lines[:4] for v in line.partition(" = ")[2].split()]
                assert all(map(math.isfinite, values)), case
            else:
                assert code == 1 and out.getvalue() == "", case
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, case
            # B = (1 + A eta)^2 cannot carry k_c's digits past A eta = 1e8
            for w in caught:
                assert "scan and closed forms disagree" in str(w.message), (case, w)
                assert A * math.sqrt(d1 / d2) > 1e8, case


NO_SCIPY = """\
import json, sys
sys.modules["scipy"] = None  # every scipy import now fails
from quasiflow import cli
out, configs = sys.argv[1], sys.argv[2:]
before = set(sys.modules)
codes = [cli.main(["turing", "--A", "2", "--d1", "1", "--d2", "4"])]
for i, config in enumerate(configs):
    codes.append(cli.main(["simulate", "--config", config, "--output", f"{out}/{i}"]))
loaded = sorted(m for m in set(sys.modules) - before if m.startswith(("scipy", "numpy.")))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_runtime_needs_no_scipy(tmp_path, sh_cfg, bruss_cfg):
    # the SH config is perturbed, which draws random numbers; and a run
    # imports no numpy module either, so its set-up time holds no import
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "runs"), str(sh_cfg), str(bruss_cfg)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "loaded": []}


class TestRender:
    def test_pgm_from_snapshot(self, tmp_path, sh_cfg, capsys):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(out)])
        img = tmp_path / "f.pgm"
        code = cli.main(["render", "--snapshot", str(out / "final.qcs"),
                         "--out", str(img), "--resolution", "32"])
        assert code == 0
        assert img.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_two_component_renders_activator(self, tmp_path, bruss_cfg):
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(bruss_cfg),
                  "--output", str(out)])
        img = tmp_path / "f.pgm"
        code = cli.main(["render", "--snapshot", str(out / "final.qcs"),
                         "--out", str(img), "--resolution", "16",
                         "--window", "-10", "10"])
        assert code == 0
        assert img.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_window_too_wide_is_one_error_line(self, tmp_path, sh_cfg, capsys):
        # the plane-wave phases overflow at x = 1e308
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(out)])
        capsys.readouterr()
        img = tmp_path / "f.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["render", "--snapshot", str(out / "final.qcs"),
                             "--out", str(img), "--resolution", "16", "--window", "0", "1e308"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite field value")
        assert not img.exists()

    def test_unresolved_window_is_one_error_line(self, tmp_path, sh_cfg, capsys):
        # finite phases near 1.9e17 rad, whose float spacing is 32 rad
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(out)])
        capsys.readouterr()
        img = tmp_path / "f.pgm"
        code = cli.main(["render", "--snapshot", str(out / "final.qcs"),
                         "--out", str(img), "--resolution", "16", "--window", "0", "1e17"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: window reaches plane-wave phase")
        assert not img.exists()

    def test_oversized_raster_is_one_error_line(self, tmp_path, sh_cfg, capsys, monkeypatch):
        # the limit is lowered, so that no large array is ever allocated: a
        # 64 x 64 raster of 49 modes has 64 KiB complex arrays
        out = tmp_path / "run"
        cli.main(["simulate", "--config", str(sh_cfg), "--output", str(out)])
        capsys.readouterr()
        monkeypatch.setattr(hull, "MAX_GRID_BYTES", 2 ** 16 - 1)
        img = tmp_path / "f.pgm"
        code = cli.main(["render", "--snapshot", str(out / "final.qcs"),
                         "--out", str(img), "--resolution", "64"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: a 64 x 64 raster of 49 modes needs 0.0625 MiB")
        assert not img.exists()
        monkeypatch.setattr(hull, "MAX_GRID_BYTES", 2 ** 16)
        assert cli.main(["render", "--snapshot", str(out / "final.qcs"),
                         "--out", str(img), "--resolution", "64"]) == 0

    def test_missing_snapshot(self, tmp_path, capsys):
        code = cli.main(["render", "--snapshot", str(tmp_path / "no.qcs"),
                         "--out", str(tmp_path / "f.pgm")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_without_time(self, tmp_path, capsys):
        snap = tmp_path / "s.qcs"
        snapshots.write_snapshot(sh.make_state(sh.random_ic(_twelvefold(1), 0.1), 0.2), snap)
        head, sep, payload = snap.read_bytes().partition(b"---\n")
        head = b"\n".join(l for l in head.split(b"\n") if not l.startswith(b"t = "))
        snap.write_bytes(head + sep + payload)
        code = cli.main(["render", "--snapshot", str(snap), "--out", str(tmp_path / "f.pgm")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "lacks t" in err[0]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code = cli.main(["nosuchcmd"])
        assert code == 2

    def test_no_subcommand(self, capsys):
        code = cli.main([])
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code = cli.main(["turing", "--A", "2"])
        assert code == 2

"""Trajectory recording and the quantitative inequality checks.

Every check is exercised twice: on a genuine run that must pass, and on a
tampered or synthetic trajectory that must fail.  A checker that cannot
reject a bad trajectory tests nothing.
"""

import dataclasses
import json

import numpy as np
import pytest

from quasiflow import brusselator, diagnostics, hull, sh, symmetry
from quasiflow.diagnostics import (
    CheckReport,
    DiagnosticsRecord,
    NeverEnters,
    NonFiniteState,
    Trajectory,
)
from quasiflow.hull import ActiveModeSet, HullField


@pytest.fixture(scope="module")
def act12():
    mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:12"))
    return ActiveModeSet(mod, 1)


@pytest.fixture(scope="module")
def decaying(act12):
    st = sh.make_state(sh.random_ic(act12, 0.1, seed=5), lam=-0.5, dt=0.01)
    _, traj = sh.integrate(st, 8.0, diag_every=10)
    return traj


@pytest.fixture(scope="module")
def supercritical(act12):
    st = sh.make_state(
        sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=3), lam=0.2, dt=0.01
    )
    _, traj = sh.integrate(st, 20.0, diag_every=1)
    return traj


def synthetic(l2_values, dt=0.1):
    """Trajectory with prescribed l2 column and harmless other fields."""
    records = []
    for i, v in enumerate(np.asarray(l2_values, dtype=float)):
        records.append(
            DiagnosticsRecord(
                t=i * dt,
                step=i,
                l2=v,
                l1=2.0 * v,
                hs=3.0 * v,
                energy=v * v,
                rhs_l2=0.1,
                grad_hull_sq=v * v,
                sym_drift=0.0,
                min_u=-v,
                max_u=v,
            )
        )
    return Trajectory(records, dt=dt)


class TestRecord:
    def test_one_component_values(self, act12):
        f = HullField.zeros(act12)
        e0 = np.zeros(4, dtype=int)
        e0[0] = 1
        f.set_coefficient(e0, 1.0)
        st = sh.make_state(f, lam=0.0, dt=0.01)
        rec = diagnostics.record(st)
        assert rec.l2 == pytest.approx(np.sqrt(2))
        assert rec.l1 == pytest.approx(2.0)
        # quartic mean of 2 cos is 6, energy = 6/4 at the critical ring
        assert rec.energy == pytest.approx(1.5)
        assert rec.min_u < 0 < rec.max_u
        assert rec.min_v is None and rec.max_v is None

    def test_pure(self, act12):
        st = sh.make_state(sh.random_ic(act12, 0.2, seed=1), lam=0.1, dt=0.01)
        before = st.field.coeffs.copy()
        r1 = diagnostics.record(st)
        r2 = diagnostics.record(st)
        assert r1 == r2
        assert np.array_equal(st.field.coeffs, before)

    def test_zero_state(self, act12):
        st = sh.make_state(HullField.zeros(act12), lam=0.3, dt=0.01)
        rec = diagnostics.record(st)
        assert rec.l2 == rec.l1 == rec.rhs_l2 == 0.0

    @pytest.mark.parametrize("equation", ["sh", "brusselator"])
    def test_one_padded_synthesis_per_component(self, act12, monkeypatch, equation):
        # rhs_l2 and the energy share one N(a); the energy synthesizes nothing,
        # and the extrema are read off N(a)'s grid, with no transform of their own
        if equation == "sh":
            st = sh.make_state(sh.random_ic(act12, 0.2, seed=1), lam=0.1, dt=0.01)
        else:
            p = brusselator.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
            st = brusselator.make_bruss_state(*brusselator.steady_ic(act12, p), p)
        shapes = []
        original = ActiveModeSet.grid_values

        def counting(self, *args, **kwargs):
            vals = original(self, *args, **kwargs)
            shapes.append(vals.shape)
            return vals

        monkeypatch.setattr(ActiveModeSet, "grid_values", counting)
        diagnostics.record(st)
        product = (act12.product_axis_points,) * act12.rank
        # the components are stacked: one product-grid call synthesizes all of them
        assert shapes == [(st.params.ncomp,) + product]
        grid = original(act12, st.coeffs).reshape(st.params.ncomp, -1)
        rec = diagnostics.record(st)
        assert (rec.min_u, rec.max_u) == (grid[0].min(), grid[0].max())
        if equation == "brusselator":
            assert (rec.min_v, rec.max_v) == (grid[1].min(), grid[1].max())

    @pytest.mark.parametrize("case", ["sh-pattern", "sh-random", "brusselator"])
    def test_columns_equal_per_component_formulas(self, act12, case):
        # the norms of one component at a time, each summed over its own
        # row, then combined: reducing the whole stack keeps every bit
        if case == "brusselator":
            p = brusselator.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
            u, v = brusselator.steady_plus_critical_ic(act12, p, (1.0, -0.5), 0.05)
            st = brusselator.make_bruss_state(u, v, p, dt=0.05)
        elif case == "sh-pattern":
            st = sh.make_state(sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=3), 0.2, dt=0.05)
        else:
            st = sh.make_state(sh.random_ic(act12, 0.3, seed=5), 0.2, dt=0.05)
        for _ in range(3):
            st = sh.step(st)
        s = 2.5
        rows = list(st.coeffs)
        rates = list(np.add(*st.terms()))
        w = (act12.msq + 1.0) ** s
        expected = dict(
            l2=float(np.hypot.reduce([float(np.linalg.norm(c)) for c in rows])),
            l1=sum(float(np.sum(np.abs(c))) for c in rows),
            hs=float(np.hypot.reduce([float(np.sqrt(np.sum(w * np.abs(c) ** 2)))
                                      for c in rows])),
            rhs_l2=float(np.hypot.reduce([float(np.linalg.norm(c)) for c in rates])),
            grad_hull_sq=sum(float(np.sum(act12.msq * np.abs(c) ** 2)) for c in rows),
            sym_drift=max(act12.symmetry_drift(c) for c in rows),
        )
        rec = diagnostics.record(st, s=s)
        assert {name: getattr(rec, name) for name in expected} == expected
        assert all(type(getattr(rec, name)) is float for name in expected)
        assert (rec.sym_drift > 1e-3) == (case == "sh-random")

    def test_validation_rejects_nan(self):
        with pytest.raises(NonFiniteState, match=r"\(l2\) at t = 0 \(step 0\)"):
            DiagnosticsRecord(
                t=0.0, step=0, l2=np.nan, l1=0.0, hs=0.0, energy=0.0,
                rhs_l2=0.0, grad_hull_sq=0.0, sym_drift=0.0, min_u=0.0, max_u=0.0,
            )

    def test_validation_rejects_l2_above_l1(self):
        with pytest.raises(ValueError):
            DiagnosticsRecord(
                t=0.0, step=0, l2=2.0, l1=1.0, hs=2.0, energy=0.0,
                rhs_l2=0.0, grad_hull_sq=0.0, sym_drift=0.0, min_u=0.0, max_u=0.0,
            )


class TestCheckReport:
    def test_line_format(self):
        rep = CheckReport("demo", -0.5, 2.0, 1e-9)
        assert rep.line().startswith("PASS demo:")
        rep = CheckReport("demo", 0.5, 2.0, 1e-9)
        assert rep.line().startswith("FAIL demo:")

    def test_verdict_is_derived(self):
        # passed is worst_slack <= tolerance, so a NaN slack fails, and no
        # caller can pass a verdict of its own
        assert CheckReport("demo", 1e-9, 0.0, 1e-9).passed
        rep = CheckReport("demo", np.nan, 0.0, np.inf)
        assert rep.passed is False and rep.line().startswith("FAIL demo:")
        assert dataclasses.asdict(rep)["passed"] is False
        with pytest.raises(TypeError):
            CheckReport("demo", True, -0.5, 0.0, 1e-9)
        with pytest.raises(TypeError):
            CheckReport("demo", -0.5, 0.0, 1e-9, passed=True)

    def test_numpy_scalars_serialize(self):
        rep = CheckReport("demo", np.float64(-0.5), np.float64(2.0), np.float64(1e-9))
        back = json.loads(json.dumps(dataclasses.asdict(rep)))
        assert back == {"name": "demo", "passed": True, "worst_slack": -0.5,
                        "worst_t": 2.0, "tolerance": 1e-9}
        assert type(rep.passed) is bool and type(rep.worst_slack) is float


class TestDecayChecks:
    def test_negative_lambda_passes(self, decaying):
        rep = diagnostics.check_decay_negative_lambda(decaying, -0.5)
        assert rep.passed

    def test_constant_trajectory_fails(self):
        traj = synthetic(np.full(50, 0.3))
        rep = diagnostics.check_decay_negative_lambda(traj, -0.5)
        assert not rep.passed
        assert rep.worst_slack > 0.01

    def test_positive_lambda_rejected(self, decaying):
        with pytest.raises(ValueError):
            diagnostics.check_decay_negative_lambda(decaying, 0.5)

    def test_zero_lambda_passes(self, act12):
        f = HullField.zeros(act12)
        e0 = np.zeros(4, dtype=int)
        e0[0] = 1
        f.set_coefficient(e0, 0.3 / np.sqrt(2))
        st = sh.make_state(f, lam=0.0, dt=0.01)
        _, traj = sh.integrate(st, 100.0, diag_every=100)
        assert diagnostics.check_decay_zero_lambda(traj).passed

    def test_zero_lambda_rejects_slow_decay(self):
        t = np.arange(40) * 0.1
        slow = 0.3 / (1.0 + 0.001 * t)  # far slower than the comparison bound
        rep = diagnostics.check_decay_zero_lambda(synthetic(slow))
        assert not rep.passed


class TestAbsorbingBall:
    def test_invariance_mode(self, supercritical):
        rep = diagnostics.check_absorbing_ball(supercritical, 0.2)
        assert rep.passed
        assert rep.name == "ball-invariance"

    def test_entry_mode(self, act12):
        big = sh.random_ic(act12, 3.0 * np.sqrt(0.2), seed=6)
        st = sh.make_state(big, lam=0.2, dt=0.01)
        _, traj = sh.integrate(st, 50.0, diag_every=10)
        rep = diagnostics.check_absorbing_ball(traj, 0.2)
        assert rep.passed
        assert rep.name == "ball-entry"

    def test_never_enters(self):
        traj = synthetic(np.full(30, 10.0))
        with pytest.raises(NeverEnters):
            diagnostics.check_absorbing_ball(traj, 0.2)

    def test_escaping_fails_invariance(self):
        l2 = np.linspace(0.1, 5.0, 30)  # starts inside, leaves
        rep = diagnostics.check_absorbing_ball(synthetic(l2), 0.2)
        assert not rep.passed

    def test_nonpositive_lambda_rejected(self, supercritical):
        with pytest.raises(ValueError):
            diagnostics.check_absorbing_ball(supercritical, 0.0)


class TestLyapunov:
    def test_genuine_run_passes_both(self, supercritical):
        mono, ident = diagnostics.check_lyapunov(supercritical)
        assert mono.passed
        assert ident.passed

    def test_energy_bump_fails_monotonicity(self, supercritical):
        records = list(supercritical.records)
        mid = len(records) // 2
        records[mid] = dataclasses.replace(records[mid], energy=records[mid].energy + 1.0)
        tampered = Trajectory(records, dt=supercritical.dt)
        mono, _ = diagnostics.check_lyapunov(tampered)
        assert not mono.passed

    def test_wrong_dissipation_rate_fails_identity(self, supercritical):
        records = [
            dataclasses.replace(r, rhs_l2=r.rhs_l2 + 1.0) for r in supercritical.records
        ]
        tampered = Trajectory(records, dt=supercritical.dt)
        _, ident = diagnostics.check_lyapunov(tampered)
        assert not ident.passed


class TestEnergyInequality:
    def test_supercritical_run(self, supercritical):
        rep = diagnostics.check_energy_inequality(supercritical, lam=0.2)
        assert rep.passed

    def test_subcritical_run(self, decaying):
        rep = diagnostics.check_energy_inequality(decaying, lam=-0.5)
        assert rep.passed

    def test_artificial_growth_fails(self):
        t = np.arange(30) * 0.1
        l2 = 0.1 * np.exp(1.5 * t)  # grows faster than the mass bound allows
        rep = diagnostics.check_energy_inequality(synthetic(l2), lam=0.2)
        assert not rep.passed


class TestGrowthAndControl:
    def test_h1_bound_on_decaying_run(self, decaying):
        assert diagnostics.check_h1_growth(decaying, -0.5).passed

    def test_h1_rejects_gradient_blowup(self):
        t = np.arange(20) * 0.1
        traj = synthetic(np.full(20, 0.1))
        records = [
            dataclasses.replace(r, grad_hull_sq=float(np.exp(3.0 * r.t)))
            for r in traj.records
        ]
        rep = diagnostics.check_h1_growth(
            Trajectory(records, dt=0.1), 0.2
        )
        assert not rep.passed

    def test_l1_control_real_run(self, supercritical, act12):
        const = hull.l1_hs_bound_constant(act12, s=3.0)
        rep = diagnostics.check_l1_control(supercritical, const)
        assert rep.passed

    def test_l1_control_fails_tiny_constant(self, supercritical):
        rep = diagnostics.check_l1_control(supercritical, 1e-6)
        assert not rep.passed

    def test_symmetry_preservation(self, supercritical):
        assert diagnostics.check_symmetry_preservation(supercritical).passed

    def test_symmetry_rejects_drift(self, supercritical):
        records = [
            dataclasses.replace(r, sym_drift=1e-3) for r in supercritical.records
        ]
        rep = diagnostics.check_symmetry_preservation(
            Trajectory(records, dt=supercritical.dt)
        )
        assert not rep.passed

    def test_separation_pass_and_fail(self):
        traj = synthetic(np.full(10, 1.0))  # max_u - min_u = 2 at l2 = 1
        assert diagnostics.check_separation(traj, threshold=0.5).passed
        assert not diagnostics.check_separation(traj, threshold=1.5).passed


class TestTrajectory:
    def test_columns_and_times(self):
        traj = synthetic([1.0, 2.0, 3.0], dt=0.5)
        assert np.allclose(traj.times, [0.0, 0.5, 1.0])
        assert np.allclose(traj.column("l1"), [2.0, 4.0, 6.0])
        assert len(traj) == 3
        assert [r.l2 for r in traj] == [1.0, 2.0, 3.0]


@pytest.fixture(scope="module")
def relaxed_n2(act12):
    # truncation must be rich enough that the support can cover ball-2
    # module points to radius 0.5; one box level above the generators suffices
    act2 = ActiveModeSet(act12.module, 2)
    st = sh.make_state(
        sh.quasicrystal_ic(act2, 0.2, 0.5, 1e-3, seed=3), lam=0.2, dt=0.01
    )
    fin, _ = sh.integrate(st, 10.0, diag_every=10 ** 9)
    return fin.field


class TestClassification:
    def test_twelvefold_field_classified(self, relaxed_n2):
        rep = diagnostics.classify_quasicrystal(
            relaxed_n2, eps_grid=np.geomspace(1e-8, 1e-2, 13), M=2.0, r=0.5
        )
        assert rep.condition_ii
        assert rep.support_integer_rank == 4
        assert rep.support_real_rank == 2
        assert rep.condition_iii
        assert rep.best_eps > 1e-10
        assert rep.condition_i

    def test_sparse_support_fails_covering(self, act12):
        # the 49-mode truncation cannot 0.5-cover the ball-2 module points
        f = sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=3)
        rep = diagnostics.classify_quasicrystal(
            f, eps_grid=np.geomspace(1e-8, 1e-2, 13), M=2.0, r=0.5
        )
        assert not rep.condition_iii

    def test_single_cosine_is_periodic(self, act12):
        # support spans a rank-1 integer lattice: rational case, must not classify
        f = HullField.zeros(act12)
        e0 = np.zeros(4, dtype=int)
        e0[0] = 1
        f.set_coefficient(e0, 0.4)
        rep = diagnostics.classify_quasicrystal(
            f, eps_grid=np.geomspace(1e-8, 1e-2, 13), M=2.0, r=0.5
        )
        assert rep.support_integer_rank == 1
        assert rep.support_real_rank == 1
        assert rep.condition_i
        assert not rep.condition_ii
        assert not rep.condition_iii

    def test_zero_field_not_classified(self, act12):
        rep = diagnostics.classify_quasicrystal(
            HullField.zeros(act12), eps_grid=np.geomspace(1e-8, 1e-2, 5), M=2.0, r=0.5
        )
        # summability holds on any truncation; the empty support fails the rest
        assert rep.condition_i
        assert not rep.condition_ii
        assert not rep.condition_iii

"""Gradient-flow dynamics: symbol, stepping, initial conditions, growth rates."""

from dataclasses import replace

import numpy as np
import pytest

from quasiflow import diagnostics, hull, sh, symmetry
from quasiflow.diagnostics import NonFiniteState
from quasiflow.etd import SCHEMES
from quasiflow.hull import ActiveModeSet, HullField, TooLarge
from quasiflow.sh import SHParams, SolverState
from quasiflow.verification import dt_ladder, growth_rate


@pytest.fixture(scope="module")
def mod12():
    return symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:12"))


@pytest.fixture(scope="module")
def act12(mod12):
    return ActiveModeSet(mod12, 1)


@pytest.fixture(scope="module")
def act4():
    mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:4"))
    return ActiveModeSet(mod, 2)


def e_first(rank):
    m = np.zeros(rank, dtype=int)
    m[0] = 1
    return m


def symbol(module, m, lam):
    """Scalar oracle for the linear symbol: lam - (|k(m)|^2 - 1)^2."""
    k = np.asarray(m) @ module.generators
    return lam - (k @ k - 1.0) ** 2


def seed_field(active, m=None, value=0.0):
    """A field with a_m = value and its partner, zero elsewhere (zero if no m)."""
    coeffs = np.zeros(len(active), dtype=complex)
    if m is not None:
        active.set_mode(coeffs, m, value)
    return HullField(active, coeffs)


def critical_orbit_seed(active, l2):
    """A field of l2 norm ``l2`` spread evenly over the first generator's orbit."""
    f = seed_field(active)
    orbit = active.k0_orbit()
    f.coeffs[orbit] = l2 / np.sqrt(len(orbit))
    return f


def rhs(field, lam):
    """The engine's time derivative of a one-component state, one row."""
    return sum(sh.make_state(field, lam).terms())[0]


class TestParams:
    def test_large_lambda_warns(self):
        with pytest.warns(UserWarning):
            SHParams(lam=1.5)

    def test_large_lambda_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="bifurcation parameter above 1") as caught:
            SHParams(lam=2.0)
        assert [w.filename for w in caught] == [__file__]

    def test_moderate_lambda_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SHParams(lam=0.9)
            SHParams(lam=-3.0)

    @pytest.mark.parametrize(
        "bad", [{"scheme": "euler"}, {"dt": 0.0}, {"dt": -1.0}, {"dt": float("nan")}]
    )
    def test_stepper_config_rejects(self, bad, act12):
        field = seed_field(act12)
        with pytest.raises(ValueError):
            sh.make_state(field, 0.1, **{"scheme": "etdrk2", "dt": 0.01, **bad})
        with pytest.raises(ValueError):
            replace(sh.make_state(field, 0.1), **bad)


class TestLinearSymbol:
    def test_unit_ring_value(self, mod12):
        # |k| = 1 there, so the quartic term vanishes
        assert symbol(mod12, e_first(4), 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_zero_mode_value(self, mod12):
        assert symbol(mod12, np.zeros(4, dtype=int), 0.3) == pytest.approx(-0.7)

    def test_array_matches_pointwise(self, act12):
        sig = sh.sigma_array(act12, 0.25)
        for i, m in enumerate(act12.indices):
            assert sig[i] == pytest.approx(symbol(act12.module, m, 0.25), abs=1e-13)

    def test_maximum_on_unit_ring(self, act12):
        sig = sh.sigma_array(act12, 0.1)
        ring = np.abs(act12.ksq - 1.0) < 1e-9
        assert sig.max() == pytest.approx(0.1, abs=1e-12)
        assert np.all(sig[~ring] < 0.1 - 1e-6)


class TestRhs:
    def test_zero_field_fixed(self, act12):
        r = rhs(seed_field(act12), 0.3)
        assert np.linalg.norm(r) == 0.0

    def test_matches_direct_convolution(self, act4):
        rng = np.random.default_rng(7)
        c = rng.normal(size=len(act4)) + 1j * rng.normal(size=len(act4))
        a = act4.hermitian(c)
        want = sh.sigma_array(act4, 0.3) * a - hull.convolve_direct(act4, a, a, a)
        got = rhs(HullField(act4, a), 0.3)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_small_amplitude_is_linear(self, act12):
        r = rhs(seed_field(act12, e_first(4), 1e-8), 0.2)
        # cubic correction is O(1e-24), far below resolution here
        assert r[act12.position(e_first(4))] == pytest.approx(0.2e-8, rel=1e-12)

    def test_direct_convolution_guard(self, mod12):
        # 3721^2 pairs in the first stage: refused before any pair is formed,
        # so even a zero field is refused
        big = ActiveModeSet(mod12, 4)
        assert len(big) == 3721
        zero = np.zeros(len(big), dtype=complex)
        with pytest.raises(TooLarge):
            hull.convolve_direct(big, zero, zero)
        # 1369^2 pairs are within the budget, and a zero field forms none
        mid = ActiveModeSet(mod12, 3)
        zero = np.zeros(len(mid), dtype=complex)
        assert not hull.convolve_direct(mid, zero, zero, zero).any()


class TestMakeState:
    def test_owns_its_coefficients(self, act12):
        f = sh.random_ic(act12, 0.1, seed=2)
        st = sh.make_state(f, lam=0.2)
        before = st.coeffs.copy()
        act12.set_mode(f.coeffs, e_first(4), 1.0)
        assert not np.shares_memory(st.coeffs, f.coeffs)
        assert np.array_equal(st.coeffs, before)


class TestStep:
    def test_single_linear_step(self, act12):
        # amplitude small enough that the cubic is negligible: one dt = 0.1
        # step at lam = 0.2 multiplies the unit-ring pair by e^{0.02}
        st = sh.make_state(seed_field(act12, e_first(4), 1e-6), lam=0.2, scheme="etdrk2",
                           dt=0.1)
        out = sh.step(st).coeffs[0, act12.position(e_first(4))]
        assert out == pytest.approx(1e-6 * np.exp(0.02), rel=1e-9)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_is_fixed_point(self, act12, scheme):
        st = sh.make_state(seed_field(act12), lam=0.3, scheme=scheme, dt=0.05)
        assert np.linalg.norm(sh.step(st).field.coeffs) == 0.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_hermitian_preserved(self, act12, scheme):
        f = sh.random_ic(act12, 0.3, seed=1)
        st = sh.make_state(f, lam=0.2, scheme=scheme, dt=0.02)
        for _ in range(5):
            st = sh.step(st)
        assert act12.hermitian_defect(st.coeffs) == 0.0
        vals = act12.grid_values(st.coeffs)
        assert np.isrealobj(vals)

    def test_time_and_counter_advance(self, act12):
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=2), lam=0.1, dt=0.01)
        st2 = sh.step(sh.step(st))
        assert st2.t == pytest.approx(0.02)
        assert st2.step_index == 2
        assert st.step_index == 0  # original untouched

    def test_dt_override(self, act12):
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=2), lam=0.1, dt=0.01)
        st2 = sh.step(replace(st, dt=0.005))
        assert st2.t == pytest.approx(0.005)
        assert st2.dt == 0.005

    def test_nonfinite_detected(self, act12):
        f = seed_field(act12, e_first(4), 1e200)  # cube overflows
        st = sh.make_state(f, lam=0.2, dt=0.1)
        with pytest.raises(NonFiniteState):
            sh.step(st)

    def test_schemes_agree_to_second_order(self, act12):
        f = sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=3)
        a = sh.make_state(f, lam=0.2, scheme="etdrk2", dt=0.01)
        b = sh.make_state(f, lam=0.2, scheme="etdrk4", dt=0.01)
        for _ in range(100):
            a, b = sh.step(a), sh.step(b)
        assert np.linalg.norm(a.field.coeffs - b.field.coeffs) < 1e-5


class TestIntegrate:
    def test_zero_horizon(self, act12):
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=4), lam=0.1, dt=0.01)
        fin, traj = sh.integrate(st, 0.0)
        assert len(traj) == 1
        assert fin.t == 0.0

    def test_horizon_below_fractional_threshold(self, act12):
        # no step is taken, so the initial state is the only record
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=4), lam=0.1, dt=0.01)
        fin, traj = sh.integrate(st, 1e-13, diag_every=1)
        assert fin.step_index == 0 and fin.t == 0.0
        assert traj.column("step").tolist() == [0.0]

    def test_record_cadence(self, act12):
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=4), lam=0.1, dt=0.01)
        fin, traj = sh.integrate(st, 1.0, diag_every=10)
        assert len(traj) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.allclose(np.diff(traj.times), 0.1)

    def test_fractional_final_step(self, act12):
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=4), lam=0.1, dt=0.1)
        fin, traj = sh.integrate(st, 0.55)
        assert fin.t == pytest.approx(0.55, abs=1e-12)
        assert fin.dt == 0.1  # restored after the remainder step

    def test_hooks_see_every_record(self, act12):
        seen = []
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=4), lam=0.1, dt=0.01)
        sh.integrate(st, 0.5, hooks=(lambda s, r: seen.append(r.t),), diag_every=5)
        assert len(seen) == 11

    def test_trajectory_metadata(self, act12):
        st = sh.make_state(sh.random_ic(act12, 0.1, seed=4), lam=-0.3, dt=0.02)
        _, traj = sh.integrate(st, 0.2, diag_every=2)
        assert traj.dt == 0.02

    def test_negative_horizon_rejected(self, act12):
        st = sh.make_state(seed_field(act12), lam=0.1, dt=0.01)
        with pytest.raises(ValueError):
            sh.integrate(st, -1.0)


@pytest.fixture(scope="module")
def order_ic(act4):
    return sh.random_ic(act4, amplitude=0.4, seed=3)


class TestConvergenceOrder:
    """dt-halving study against a much finer reference of the same scheme."""

    @pytest.mark.parametrize(
        "scheme,floor", [("etdrk2", 1.9), ("etdrk4", 3.8)]
    )
    def test_observed_order(self, order_ic, scheme, floor):
        st = sh.make_state(order_ic, lam=0.3, scheme=scheme)
        errs = dt_ladder(st, 1.0, (0.025, 0.0125))
        order = np.log2(errs[0] / errs[1])
        assert order >= floor
        assert order < 4.6  # sanity: not a cancellation artifact


class TestQuasicrystalIC:
    def test_unperturbed_hand_values(self, act12):
        # lam = 0.04, half-amplitude: each of the 12 ring modes carries
        # 0.5 * 0.2 / sqrt(12)
        f = sh.quasicrystal_ic(act12, lam=0.04, relative_amplitude=0.5)
        assert f.coeffs[act12.position(e_first(4))] == pytest.approx(0.1 / np.sqrt(12))
        assert np.linalg.norm(f.coeffs) == pytest.approx(0.1, abs=1e-15)
        assert act12.symmetry_drift(f.coeffs) <= 1e-14

    def test_support_is_generator_orbit(self, act12):
        f = sh.quasicrystal_ic(act12, lam=0.04, relative_amplitude=0.5)
        assert np.array_equal(np.flatnonzero(np.abs(f.coeffs) > 1e-12), act12.k0_orbit())

    def test_perturbed_norm_exact(self, act12):
        f = sh.quasicrystal_ic(act12, 0.2, 0.5, perturbation=1e-3, seed=1)
        assert np.linalg.norm(f.coeffs) == pytest.approx(0.5 * np.sqrt(0.2), rel=1e-14)
        assert np.all(np.abs(f.coeffs) > 0)
        assert act12.hermitian_defect(f.coeffs) == 0.0
        assert act12.symmetry_drift(f.coeffs) <= 1e-14

    def test_deterministic_in_seed(self, act12):
        a = sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=9)
        b = sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=9)
        c = sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=10)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"relative_amplitude": 0.0},
            {"relative_amplitude": 1.5},
            {"perturbation": -0.1},
            {"lam": -0.2},
        ],
    )
    def test_rejects(self, act12, kwargs):
        args = {"lam": 0.2, "relative_amplitude": 0.5, **kwargs}
        with pytest.raises(ValueError):
            sh.quasicrystal_ic(act12, **args)


class TestRandomIC:
    def test_norm_and_hermitian(self, act12):
        f = sh.random_ic(act12, amplitude=0.37, seed=5)
        assert np.linalg.norm(f.coeffs) == pytest.approx(0.37, rel=1e-14)
        assert act12.hermitian_defect(f.coeffs) == 0.0

    def test_deterministic(self, act12):
        assert np.array_equal(
            sh.random_ic(act12, 0.1, seed=5).coeffs, sh.random_ic(act12, 0.1, seed=5).coeffs
        )


class TestBranchGrowth:
    """A small critical-orbit seed grows or decays at the unit ring's rate lam."""

    def test_rate_above_threshold(self, act12):
        st = sh.make_state(critical_orbit_seed(act12, 1e-6), lam=0.2)
        assert growth_rate(st, 6.0, 0.0) == pytest.approx(0.2, rel=1e-3)

    def test_rate_below_threshold(self, act12):
        st = sh.make_state(critical_orbit_seed(act12, 1e-6), lam=-0.1)
        assert growth_rate(st, 6.0, 0.0) == pytest.approx(-0.1, rel=1e-3)

    def test_samples_without_records(self, act12, monkeypatch):
        calls = []
        record = diagnostics.record
        monkeypatch.setattr(diagnostics, "record",
                            lambda *a, **k: calls.append(1) or record(*a, **k))
        growth_rate(sh.make_state(critical_orbit_seed(act12, 1e-6), lam=0.2), 0.2, 0.0)
        assert calls == []


class TestSymmetryPropagation:
    def test_drift_stays_at_round_off(self, act12):
        st = sh.make_state(
            sh.quasicrystal_ic(act12, 0.2, 0.5, 1e-3, seed=2), lam=0.2, dt=0.01
        )
        for _ in range(200):
            st = sh.step(st)
        assert act12.symmetry_drift(st.coeffs) < 1e-12

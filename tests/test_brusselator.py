"""Two-component dynamics: onset analysis, exponential stepping, positivity."""

import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiflow import diagnostics, hull, symmetry
from quasiflow import brusselator as br
from quasiflow.brusselator import BrusselatorParams, TuringReport
from quasiflow.diagnostics import NonFiniteState
from quasiflow.hull import ActiveModeSet, HullField
from quasiflow.verification import VERTEX_K0, growth_rate


@pytest.fixture(scope="module")
def act12():
    mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:12"))
    return ActiveModeSet(mod, 1)


@pytest.fixture(scope="module")
def act4():
    mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:4"))
    return ActiveModeSet(mod, 2)


# diffusivities chosen so the critical ring k_c = (A/sqrt(d1 d2))^(1/2) = 1
# falls exactly on the module's generator orbit
RUN_PARAMS = dict(A=2.0, d1=1.0, d2=4.0)


@pytest.fixture(scope="module")
def onset():
    return br.turing_analysis(**RUN_PARAMS)


def e_first(rank):
    m = np.zeros(rank, dtype=int)
    m[0] = 1
    return m


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BrusselatorParams(A=0.0, B=1.0, d1=1.0, d2=1.0)
        with pytest.raises(ValueError):
            BrusselatorParams(A=2.0, B=1.0, d1=-0.5, d2=1.0)

    def test_steady_state(self):
        p = BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
        assert br.steady_state(p) == (2.0, 2.1)


class TestDispersionMatrix:
    def test_frozen_entries(self):
        p = BrusselatorParams(A=2.0, B=4.0, d1=0.25, d2=1.0)
        M = br.dispersion_matrix(p, 4.0)
        assert np.allclose(M, [[2.0, 4.0], [-4.0, -8.0]])
        # the critical point: singular exactly there
        assert abs(np.linalg.det(M)) < 1e-12

    def test_negative_ksq_rejected(self):
        p = BrusselatorParams(A=2.0, B=4.0, d1=0.25, d2=1.0)
        with pytest.raises(ValueError):
            br.dispersion_matrix(p, -1.0)

    def test_zero_wavenumber_is_kinetics(self):
        p = BrusselatorParams(A=2.0, B=3.0, d1=1.0, d2=1.0)
        M = br.dispersion_matrix(p, 0.0)
        assert np.allclose(M, [[2.0, 4.0], [-3.0, -4.0]])


class TestTuringAnalysis:
    def test_reference_triple(self):
        rep = br.turing_analysis(2.0, 0.25, 1.0)
        assert rep.eta == pytest.approx(0.5, abs=1e-14)
        assert rep.B_c == pytest.approx(4.0, rel=1e-12)
        assert rep.k_c == pytest.approx(2.0, rel=1e-12)
        assert abs(rep.B_c_scan - 4.0) / 4.0 < 1e-8
        assert abs(rep.k_c_scan - 2.0) / 2.0 < 1e-8
        assert rep.turing_first

    def test_reference_eigenvector_direction(self):
        rep = br.turing_analysis(2.0, 0.25, 1.0)
        ev = np.array(rep.critical_eigenvector)
        assert np.linalg.norm(ev) == pytest.approx(1.0, abs=1e-12)
        want = np.array([-2.0, 1.0]) / np.sqrt(5.0)
        angle = np.arccos(np.clip(abs(ev @ want), 0.0, 1.0))
        assert angle < 1e-6

    def test_equal_diffusivities_never_turing_first(self):
        rep = br.turing_analysis(2.0, 1.0, 1.0)
        assert rep.B_c == pytest.approx(9.0)
        assert not rep.turing_first

    def test_random_triples_match_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.uniform(0.5, 3.0)
            d1 = rng.uniform(0.05, 2.0)
            d2 = rng.uniform(0.05, 2.0)
            rep = br.turing_analysis(A, d1, d2)
            eta = np.sqrt(d1 / d2)
            assert abs(rep.B_c_scan - (1 + A * eta) ** 2) / rep.B_c < 1e-8
            assert abs(rep.k_c_scan ** 2 - A / np.sqrt(d1 * d2)) / rep.k_c ** 2 < 1e-8

    # k_c^2 from 5e-8 to 3e-3, below the golden section's absolute width;
    # a warning is an error here, since the scan warns when it disagrees
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A", [1e-3, 1e-4, 1e-5, 1e-7])
    @pytest.mark.parametrize("d1,d2", [(1.0, 4.0), (0.05, 2.0)])
    def test_small_wavenumber_matches_closed_form(self, A, d1, d2):
        rep = br.turing_analysis(A, d1, d2)
        B_c = (1 + A * np.sqrt(d1 / d2)) ** 2
        k_c = np.sqrt(A / np.sqrt(d1 * d2))
        assert abs(rep.B_c_scan - B_c) / B_c < 1e-8
        assert abs(rep.k_c_scan - k_c) / k_c < 1e-8

    def test_scan_is_ground_truth_when_d2_not_one(self, onset):
        # sqrt(A/eta) would give 2 here; the dispersion minimum sits at 1
        assert onset.k_c_scan == pytest.approx(1.0, rel=1e-10)
        assert onset.k_c == pytest.approx(1.0, rel=1e-10)
        assert np.sqrt(RUN_PARAMS["A"] / onset.eta) == pytest.approx(2.0)

    def test_report_lines(self):
        rep = br.turing_analysis(2.0, 0.25, 1.0)
        lines = rep.lines()
        assert any(line.startswith("B_c = 4") for line in lines)
        assert any(line.startswith("k_c = 2") for line in lines)
        assert "turing_first = true" in lines

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            br.turing_analysis(-1.0, 0.25, 1.0)

    def test_overflowing_coefficient_is_out_of_range(self):
        # d1 A^2 = 1e310: a determinant that is inf everywhere has no minimum
        with pytest.raises(ValueError, match="determinant out of range"):
            br.turing_analysis(1e150, 1e10, 1e10)


@pytest.fixture(scope="module")
def brentq():
    """scipy's brentq, called like ``_brent_root``."""
    solve = pytest.importorskip("scipy.optimize").brentq
    return lambda f, xa, xb, xtol, rtol: solve(f, xa, xb, xtol=xtol, rtol=rtol)


def outcome(solve, *args):
    """The result's bits, or the type of the error raised instead."""
    try:
        return np.asarray(solve(*args), dtype=float).tobytes()
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        return type(exc)


class TestBrentRoot:
    """``_brent_root`` against its oracle, scipy's brentq, bit for bit."""

    TOL = (1e-13, 1e-15)  # xtol, rtol: the onset scan's

    @settings(max_examples=200, deadline=None)
    @given(
        roots=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
        scale=st.floats(1e-3, 1e3),
        ends=st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
        # the scan's xtol, and coarser ones that reach the step-length tests
        xtol=st.sampled_from([TOL[0], 1e-4, 1e-1]),
    )
    def test_polynomials(self, brentq, roots, scale, ends, xtol):
        def f(x):
            out = scale
            for r in roots:
                out *= x - r
            return out

        # a multiple root can stall both past the iteration cap alike
        tol = (xtol, self.TOL[1])
        assert outcome(br._brent_root, f, *ends, *tol) == outcome(brentq, f, *ends, *tol)

    @settings(max_examples=30, deadline=None)
    @given(A=st.floats(0.2, 5.0), d1=st.floats(0.05, 5.0), d2=st.floats(0.05, 20.0))
    def test_the_onset_scan(self, brentq, A, d1, d2):
        # the scan's own function and bracket, as turing_analysis builds them
        def min_det(B):
            return br._interior_min_ksq(BrusselatorParams(A, B, d1, d2))[1]

        B_hi = 2.0
        while min_det(B_hi) >= 0:
            B_hi *= 2.0
        want = outcome(brentq, min_det, 1.0 + 1e-12, B_hi, *self.TOL)
        assert outcome(br._brent_root, min_det, 1.0 + 1e-12, B_hi, *self.TOL) == want
        assert outcome(lambda: br.turing_analysis(A, d1, d2).B_c_scan) == want

    def test_unbracketed_interval_is_refused(self):
        with pytest.raises(ValueError):
            br._brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-13, 1e-15)


def numpy_scan(params):
    """The onset scan on numpy scalars, overflow trapped by errstate: the
    oracle of ``_interior_min_ksq``, which runs the same steps on floats."""
    A, B, d1, d2 = params.A, params.B, params.d1, params.d2

    def det(ksq):
        ksq = np.asarray(ksq, dtype=float)
        return d1 * d2 * ksq ** 2 + (d1 * A * A - d2 * (B - 1.0)) * ksq + A * A

    gr = br.GOLDEN_RATIO
    with np.errstate(over="raise", invalid="raise"):
        hi = 1.0
        for _ in range(200):
            if det(hi) > det(0.5 * hi):
                break
            hi *= 2.0
        else:
            raise br.NoBracket("determinant keeps decreasing; no interior minimum")
        a, b = 0.0, hi
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = det(c), det(d)
        while b - a > 1e-6 * (1.0 + b):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = det(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = det(d)
        mid = 0.5 * (a + b)
        s = min(1e-3 * (1.0 + mid), 0.5 * mid)
        f0, fp, fm = det(mid), det(mid + s), det(mid - s)
        denom = fp - 2.0 * f0 + fm
        vertex = mid if denom <= 0 else mid - 0.5 * s * (fp - fm) / denom
        vertex = max(float(vertex), 0.0)
        return vertex, float(det(vertex))


def log_uniform_triples(seed, count, low_A):
    rng = np.random.default_rng(seed)
    return [tuple(map(float, 10.0 ** rng.uniform((low_A, -2.0, -2.0), (1.0, 1.0, 1.0))))
            for _ in range(count)]


def battery_triples():
    # battery rows 14a, 14c and the onset run's (2, 1, 4)
    rng = np.random.default_rng(11)
    return [(2.0, 1.0, 4.0), (2.0, 0.25, 1.0)] + [
        (rng.uniform(0.5, 3.0), rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
        for _ in range(20)
    ]


ORACLE_TRIPLES = {
    "battery": battery_triples(),
    # k_c^2 down to 5e-10, where B_c - 1 is below the scan's resolution
    "small-k": [(A, d1, d2) for A in (1e-3, 1e-5, 1e-7, 1e-9)
                for d1, d2 in ((1.0, 4.0), (0.05, 2.0))],
    "log-uniform": log_uniform_triples(20, 300, -9.0),
    # the CLI's cases that overflow
    "overflow": [(2.0, 1e-300, 1e300), (1e200, 1.0, 4.0), (2.0, 1e300, 4.0)],
}


class TestScanOracle:
    """The float scan gives the numpy-scalar scan's results bit for bit."""

    @staticmethod
    def report(A, d1, d2):
        """Result bits, report lines and warnings, or the error raised."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rep = br.turing_analysis(A, d1, d2)
            except (ValueError, OverflowError, br.NoBracket) as exc:
                return type(exc), str(exc).partition(":")[0]
        bits = [x.hex() for x in (rep.B_c_scan, rep.k_c_scan, *rep.critical_eigenvector)]
        return bits, rep.lines(), [str(w.message) for w in caught]

    @pytest.mark.parametrize("group", list(ORACLE_TRIPLES))
    def test_turing_analysis(self, monkeypatch, group):
        got = [self.report(*t) for t in ORACLE_TRIPLES[group]]
        monkeypatch.setattr(br, "_interior_min_ksq", numpy_scan)
        assert got == [self.report(*t) for t in ORACLE_TRIPLES[group]]

    def test_near_overflow(self):
        # determinants near the float range; coefficients that overflow
        # while they are formed are left out: the oracle carries them as inf
        # without a trap.  The first case overflows only in the parabola fit
        rng = np.random.default_rng(21)
        cases = [(9.850284361715119e153, 2.9167479031567476e268,
                  9.985782917717798e-08, 3.044085695308807e-09)]
        while len(cases) < 300:
            A, B, d1, d2 = map(float, 10.0 ** rng.uniform((140, 0, -30, -30),
                                                          (154.1, 308, 10, 10)))
            if np.isfinite(d1 * A * A - d2 * (B - 1.0)):
                cases.append((A, B, d1, d2))
        for case in cases:
            want = outcome(numpy_scan, BrusselatorParams(*case))
            assert outcome(br._interior_min_ksq, BrusselatorParams(*case)) == want
        with pytest.raises(FloatingPointError, match="parabola"):
            br._interior_min_ksq(BrusselatorParams(*cases[0]))


def uuv_params():
    # -N_v = u^2 v for any parameters: the feed A enters N_u only
    return BrusselatorParams(B=4.2, **RUN_PARAMS)


class TestQuadraticCubic:
    def test_matches_direct_convolution(self, act4):
        rng = np.random.default_rng(3)
        n = len(act4)
        fu = HullField(act4, act4.hermitian(rng.normal(size=n) + 1j * rng.normal(size=n)))
        fv = HullField(act4, act4.hermitian(rng.normal(size=n) + 1j * rng.normal(size=n)))
        grids = act4.grid_values(np.stack((fu.coeffs, fv.coeffs)))
        grid = -uuv_params().nonlinear(grids, act4)[1]
        direct = hull.convolve_direct(fu, fu, fv)
        assert direct.shape == (len(act4),)
        assert np.max(np.abs(grid - direct)) < 1e-12

    def test_linear_in_second_factor(self, act4):
        rng = np.random.default_rng(4)
        n = len(act4)
        a = HullField(act4, act4.hermitian(rng.normal(size=n) + 1j * rng.normal(size=n)))
        b = HullField(act4, act4.hermitian(rng.normal(size=n) + 1j * rng.normal(size=n)))
        p = uuv_params()
        one = -p.nonlinear(act4.grid_values(np.stack((a.coeffs, b.coeffs))), act4)[1]
        three = -p.nonlinear(act4.grid_values(np.stack((a.coeffs, 3.0 * b.coeffs))), act4)[1]
        assert np.allclose(three, 3.0 * one, atol=1e-12)


class TestRhs:
    def test_steady_state_is_equilibrium(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act12, p)
        st = br.make_bruss_state(u, v, p)
        du, dv = sum(st.terms())
        assert np.linalg.norm(du) < 1e-14
        assert np.linalg.norm(dv) < 1e-14

    def test_zero_fields_feel_the_feed(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(HullField.zeros(act12), HullField.zeros(act12), p)
        du, dv = (HullField(st.active, c) for c in sum(st.terms()))
        zero = np.zeros(4, dtype=int)
        assert du.get_coefficient(zero) == pytest.approx(2.0)
        assert np.linalg.norm(du.coeffs) == pytest.approx(2.0)  # only the feed term
        assert np.linalg.norm(dv.coeffs) == 0.0

    def test_components_must_share_active_set(self, act12):
        other = ActiveModeSet(act12.module, 1)
        with pytest.raises(ValueError):
            br.make_bruss_state(
                HullField.zeros(act12),
                HullField.zeros(other),
                BrusselatorParams(B=4.2, **RUN_PARAMS),
            )


class TestStepper:
    def test_steady_state_fixed_to_round_off(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(*br.steady_ic(act12, p), p, dt=0.01)
        fin, _ = br.bruss_integrate(st, 10.0, diag_every=100)
        zero = np.zeros(4, dtype=int)
        assert abs(fin.u_field.get_coefficient(zero) - 2.0) < 1e-12
        assert abs(fin.v_field.get_coefficient(zero) - 2.1) < 1e-12
        off_u = np.sort(np.abs(fin.u_field.coeffs))[-2]
        off_v = np.sort(np.abs(fin.v_field.coeffs))[-2]
        assert max(off_u, off_v) == 0.0

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_steady_state_fixed_at_a_long_step(self, N):
        # dt = 50 puts h L of the outer modes near -4000 against a diagonal
        # partner near -50: the coupling entry of the exponential table then
        # needs the direct quotient of the divided difference.  Every N runs
        # on another product grid (5, 9, 14 points per axis), on each of which
        # the constant u^2 v must transform exactly
        mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:12"))
        act = ActiveModeSet(mod, N)
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(*br.steady_ic(act, p), p, dt=50.0)
        fin = br.bruss_step(st)
        assert np.max(np.abs(fin.coeffs - st.coeffs)) < 1e-12

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_steady_state_fixed_at_a_long_step_etdrk4(self, N):
        # every ETDRK4 stage is the steady state plus phi-weighted rates that
        # vanish there, so no stage cancels large terms
        mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:12"))
        act = ActiveModeSet(mod, N)
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(*br.steady_ic(act, p), p, dt=50.0, scheme="etdrk4")
        fin = br.bruss_step(st)
        assert np.max(np.abs(fin.coeffs - st.coeffs)) < 1e-12

    def test_near_onset_growth_matches_dispersion(self, act12, onset):
        B = 1.05 * onset.B_c
        p = BrusselatorParams(B=B, **RUN_PARAMS)
        predicted = float(
            np.max(np.linalg.eigvals(br.dispersion_matrix(p, 1.0)).real)
        )
        u, v = br.steady_plus_critical_ic(act12, p, onset.critical_eigenvector, 1e-6)
        # fit past t = 20: the non-critical eigendirection's transient has died
        rate = growth_rate(br.make_bruss_state(u, v, p, dt=0.01), 40.0, 20.0)
        assert rate == pytest.approx(predicted, rel=0.05)

    def test_below_onset_decay_matches_dispersion(self, act12, onset):
        p = BrusselatorParams(B=0.9 * onset.B_c, **RUN_PARAMS)
        predicted = float(
            np.max(np.linalg.eigvals(br.dispersion_matrix(p, 1.0)).real)
        )
        assert predicted < 0
        u, v = br.steady_plus_critical_ic(act12, p, onset.critical_eigenvector, 1e-6)
        rate = growth_rate(br.make_bruss_state(u, v, p, dt=0.01), 40.0, 20.0)
        assert rate == pytest.approx(predicted, rel=0.05)

    def test_hermitian_and_symmetric_after_steps(self, act12, onset):
        p = BrusselatorParams(B=1.05 * onset.B_c, **RUN_PARAMS)
        u, v = br.steady_plus_critical_ic(act12, p, onset.critical_eigenvector, 1e-6)
        st = br.make_bruss_state(u, v, p, dt=0.01)
        for _ in range(1000):
            st = br.bruss_step(st)
        assert act12.hermitian_defect(st.coeffs[0]) == 0.0
        assert act12.hermitian_defect(st.coeffs[1]) == 0.0
        drift = act12.symmetry_drift(st.coeffs)
        assert drift <= 1e-10

    def test_nonfinite_detected(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act12, p)
        u.coeffs[0] = 1e200
        st = br.make_bruss_state(u, v, p, dt=0.01)
        with pytest.raises(NonFiniteState):
            br.bruss_step(st)

    def test_dt_override_and_restore(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(*br.steady_ic(act12, p), p, dt=0.01)
        st2 = br.bruss_step(replace(st, dt=0.004))
        assert st2.t == pytest.approx(0.004)
        assert st2.dt == 0.004


class TestIntegrate:
    def test_records_have_both_components(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(*br.steady_ic(act12, p), p, dt=0.01)
        fin, traj = br.bruss_integrate(st, 0.5, diag_every=10)
        rec = traj.records[0]
        assert rec.min_v is not None and rec.max_v is not None
        assert rec.min_v == pytest.approx(2.1)
        assert rec.max_u == pytest.approx(2.0)
        assert rec.energy == 0.0

    def test_lands_exactly_on_horizon(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(*br.steady_ic(act12, p), p, dt=0.03)
        fin, _ = br.bruss_integrate(st, 0.1)
        assert fin.t == pytest.approx(0.1, abs=1e-12)
        assert fin.dt == 0.03

    def test_blow_up_reports_completed_steps(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act12, p)
        u.set_coefficient(e_first(4), 1e60)  # finite record, u^2 v overflows
        st = br.make_bruss_state(u, v, p, dt=0.01)
        with pytest.raises(NonFiniteState, match=r"blow-up after 0 full steps"):
            br.bruss_integrate(st, 0.1)

    def test_overflowing_first_record_names_time_and_step(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act12, p)
        u.set_coefficient(e_first(4), 1e200)  # finite state, its diagnostics overflow
        st = br.make_bruss_state(u, v, p, dt=0.01)
        with pytest.raises(NonFiniteState, match=r"at t = 0 \(step 0\)") as info:
            br.bruss_integrate(st, 0.1)
        assert info.value.trajectory.records == []


class TestPositivity:
    def test_positive_ic_stays_positive(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act12, p)
        bump = HullField.zeros(act12)
        bump.set_coefficient(e_first(4), 0.05)
        u.coeffs += act12.symmetrize(bump.coeffs)
        st = br.make_bruss_state(u, v, p, dt=0.01)
        fin, traj = br.bruss_integrate(st, 10.0, diag_every=10)
        min_u, min_v = br.positivity_check(fin)
        assert min_u >= -1e-6
        assert min_v >= -1e-6

    def test_u_floor_after_transient(self, act12):
        # after the feed balances consumption, u stays above half of A/(B+1)
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act12, p)
        bump = HullField.zeros(act12)
        bump.set_coefficient(e_first(4), 0.05)
        u.coeffs += act12.symmetrize(bump.coeffs)
        st = br.make_bruss_state(u, v, p, dt=0.01)
        _, traj = br.bruss_integrate(st, 10.0, diag_every=10)
        floor = 0.5 * p.A / (p.B + 1.0)
        late = [r.min_u for r in traj.records if r.t >= 1.0]
        assert min(late) >= floor

    def test_steady_check_values(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        st = br.make_bruss_state(*br.steady_ic(act12, p), p)
        assert br.positivity_check(st, 16) == (
            pytest.approx(2.0),
            pytest.approx(2.1),
        )


@cache
def bound_case(name, N):
    if name == "vertex":
        module = symmetry.generate_frequency_module(
            symmetry.build_holohedry("icosahedral"), VERTEX_K0)
    else:
        module = symmetry.generate_frequency_module(symmetry.build_holohedry(name))
    return ActiveModeSet(module, N)


BOUND_CASES = [("dihedral:12", N) for N in (1, 2, 3)] + [("vertex", 1)]


class TestCertifiedBound:
    """positivity_check bounds each component below over the whole torus."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BOUND_CASES), st.integers(0, 10_000), st.floats(-2.0, 2.0))
    def test_bound_is_below_every_sample(self, case, seed, offset):
        act = bound_case(*case)
        rng = np.random.default_rng(seed)
        u, v = (HullField(act, act.hermitian(0.3 * (rng.normal(size=len(act))
                                                    + 1j * rng.normal(size=len(act)))))
                for _ in range(2))
        u.coeffs[act.zero_position] += offset
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        state = br.make_bruss_state(u, v, p)
        bound = br.positivity_check(state)
        G = act.product_axis_points
        # denser grids, one of which the product grid's G does not divide
        for side in (2 * G + 1, 3 * G) if act.rank == 4 else (G + 2,):
            grids = act.grid_values(state.coeffs, side)
            assert np.all(np.array(bound) <= grids.reshape(2, -1).min(axis=1))
        # and physical points of the pattern itself
        x = rng.uniform(-50.0, 50.0, size=(200, act.module.dimension))
        for low, field in zip(bound, (u, v)):
            assert low <= field.evaluate_physical(x).min()

    @pytest.mark.parametrize("case", BOUND_CASES, ids=lambda c: f"{c[0]}-N{c[1]}")
    def test_constant_field_bound_is_the_constant(self, case):
        act = bound_case(*case)
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act, p)
        assert br.positivity_check(br.make_bruss_state(u, v, p)) == (2.0, 2.1)
        u.set_coefficient(np.zeros(act.rank, dtype=int), -0.37)
        assert br.positivity_check(br.make_bruss_state(u, v, p), 16) == (-0.37, 2.1)


class TestICs:
    def test_steady_ic_support(self, act12):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_ic(act12, p)
        assert np.array_equal(np.flatnonzero(u.coeffs), [act12.zero_position])
        assert act12.symmetry_drift(u.coeffs) <= 1e-14 and act12.symmetry_drift(v.coeffs) <= 1e-14

    def test_critical_perturbation_orbit(self, act12, onset):
        p = BrusselatorParams(B=4.2, **RUN_PARAMS)
        u, v = br.steady_plus_critical_ic(act12, p, onset.critical_eigenvector, 1e-6)
        e0 = e_first(4)
        evu, evv = onset.critical_eigenvector
        assert u.get_coefficient(e0) == pytest.approx(1e-6 * evu, rel=1e-12)
        assert v.get_coefficient(e0) == pytest.approx(1e-6 * evv, rel=1e-12)
        assert np.count_nonzero(u.coeffs) == 13  # zero mode + the 12-orbit
        assert act12.symmetry_drift(u.coeffs) < 1e-18

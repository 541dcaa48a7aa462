"""Phi functions, their divided differences and triangular matrix functions;
the memoized (L a, N(a)) pair that records and steps share."""

import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiflow import brusselator as br
from quasiflow import etd, sh, symmetry
from quasiflow.hull import ActiveModeSet, HullField


def phi_longdouble(j, z):
    """The closed form (e^z - sum_{n<j} z^n/n!)/z^j in longdouble."""
    Z = np.longdouble(z)
    num = np.expm1(Z)
    for n in range(1, j):
        num = num - Z ** n / math.factorial(n)
    return num / Z ** j


def phi_ref(z, j, terms=40):
    """Longdouble reference: series near zero, expm1 form elsewhere."""
    Z = np.longdouble(z)
    if abs(z) < 0.2:
        acc = np.longdouble(0)
        for n in range(terms - 1, -1, -1):
            acc = acc * Z + np.longdouble(1) / math.factorial(n + j)
        return float(acc)
    return float(phi_longdouble(j, z))


def mat_phi_ref(j, x, w, y, terms=60):
    """Longdouble matrix series; trustworthy for norms up to ~8."""
    M = np.array([[x, 0.0], [w, y]], dtype=np.longdouble)
    out = np.zeros((2, 2), dtype=np.longdouble)
    P = np.eye(2, dtype=np.longdouble)
    for n in range(terms):
        out += P / math.factorial(n + j)
        P = P @ M
    return np.array(out, dtype=float)


def dd_ref(j, x, y, digits=60):
    """phi_j[x, y] as the quotient of 60-digit decimal phi values."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits

        def phi_dec(z):
            z = decimal.Decimal(z)
            num = z.exp() - sum(z ** n / math.factorial(n) for n in range(j))
            return num / z ** j

        return float((phi_dec(x) - phi_dec(y)) / (decimal.Decimal(x) - decimal.Decimal(y)))


def tri_phi(j, x, w, y):
    """Entries (f11, f21, f22) of phi_j([[x, 0], [w, y]]) through LowerTri.phi."""
    block = etd.LowerTri(np.array([[x], [y]], dtype=float), np.array([w], dtype=float))
    out = block.phi(j)
    return out.diag[0, 0], out.low[0], out.diag[1, 0]


# (j, relative tolerance) of the scalar phi_j against phi_ref
REFERENCE_TOLS = [(1, 1e-14), (2, 1e-13), (3, 1e-11)]


class TestScalarPhis:
    def test_values_at_zero(self):
        assert etd.phi(0, 0.0) == 1.0
        assert etd.phi(1, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert etd.phi(2, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert etd.phi(3, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_value_at_one(self):
        e = math.e
        assert etd.phi(0, 1.0) == pytest.approx(e, rel=1e-15)
        assert etd.phi(1, 1.0) == pytest.approx(e - 1.0, rel=1e-14)
        assert etd.phi(2, 1.0) == pytest.approx(e - 2.0, rel=1e-14)
        assert etd.phi(3, 1.0) == pytest.approx(e - 2.5, rel=1e-13)

    @pytest.mark.parametrize("j,tol", REFERENCE_TOLS,
                             ids=[f"{j}-phi{j}-{tol}" for j, tol in REFERENCE_TOLS])
    def test_against_reference_across_threshold(self, j, tol):
        rng = np.random.default_rng(0)
        zs = np.concatenate([
            rng.uniform(-6, 6, 200),
            rng.uniform(-2e-2, 2e-2, 400),
            [0.0, 1e-2, -1e-2, 0.0099999, 0.0100001, -0.0099999, -0.0100001],
        ])
        vals = etd.phi(j, zs)
        refs = np.array([phi_ref(z, j) for z in zs])
        rel = np.abs(vals - refs) / np.maximum(np.abs(refs), 1e-300)
        assert np.max(rel) < tol

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-20, 3, allow_nan=False))
    def test_recurrence_identities(self, z):
        assert etd.phi(0, z) == pytest.approx(1.0 + z * etd.phi(1, z), rel=1e-11, abs=1e-13)
        assert etd.phi(1, z) == pytest.approx(1.0 + z * etd.phi(2, z), rel=1e-11, abs=1e-13)
        assert etd.phi(2, z) == pytest.approx(0.5 + z * etd.phi(3, z), rel=1e-11, abs=1e-13)

    def test_vectorized_shape(self):
        z = np.linspace(-1, 1, 7).reshape(7, 1)
        for j in range(4):
            assert etd.phi(j, z).shape == (7, 1)


class TestSinhc:
    def test_at_zero(self):
        assert etd.sinhc(0.0) == 1.0

    def test_matches_definition(self):
        z = np.linspace(-3, 3, 41)
        z = z[np.abs(z) > 1e-3]
        assert np.allclose(etd.sinhc(z), np.sinh(z) / z, rtol=1e-14)

    def test_smooth_across_switch(self):
        z = np.array([9e-5, 1.1e-4])
        v = etd.sinhc(z)
        assert abs(v[1] - v[0]) < 1e-8


class TestDividedDifference:
    @pytest.mark.parametrize("j,tol", [(0, 1e-14), (1, 1e-14), (2, 1e-13), (3, 1e-12)])
    def test_close_pairs_match_decimal_oracle(self, j, tol):
        # close pairs across [-60, 3]: the climb from phi_0 away from the
        # origin, the joint series near it
        rng = np.random.default_rng(5)
        x = rng.uniform(-60.0, 3.0, 400)
        gap = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-12, -1.2, 400)
        y = np.clip(x + gap * (1.0 + np.abs(x)), -60.0, 3.0)
        keep = x != y
        x, y = x[keep], y[keep]
        got = etd.divided_difference(j, x, y)
        ref = np.array([dd_ref(j, a, b) for a, b in zip(x, y)])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < tol

    @pytest.mark.parametrize("j,tol", [(0, 1e-14)] + REFERENCE_TOLS)
    def test_far_apart_pairs_match_decimal_oracle(self, j, tol):
        # a stiff mode against a slow one: e^x underflows and, at j = 0,
        # so does the mean factor e^mu while sinh of the half-gap overflows.
        # The quotient is as accurate as the scalar phi_j(y), hence its tolerance
        rng = np.random.default_rng(6)
        x = rng.uniform(-3000.0, -1500.0, 100)
        y = rng.uniform(-5.0, 0.0, 100)
        got = etd.divided_difference(j, np.concatenate([x, y]), np.concatenate([y, x]))
        ref = np.array([dd_ref(j, a, b) for a, b in zip(x, y)])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - np.tile(ref, 2)) / np.abs(np.tile(ref, 2))) < tol


class TestLowerTriangular:
    @pytest.mark.parametrize("x,w,y", [
        (-0.5, 2.0, -0.1),
        (-3.0, 4.0, -3.0),
        (-0.05, 4.0, 0.0),
        (0.0, 1.0, 0.0),
        (-2.0, -1.5, 1e-13),
        (-6.0, 0.3, -5.9999999),
        (1.0, 2.0, -1.0),
    ])
    def test_exp_phi1_phi2_match_series(self, x, w, y):
        # phi_0 = exp through phi_3, every entry against the matrix series
        for j in range(4):
            got = tri_phi(j, x, w, y)
            ref = mat_phi_ref(j, x, w, y)
            assert got[0] == pytest.approx(ref[0, 0], rel=1e-12, abs=1e-14)
            assert got[1] == pytest.approx(ref[1, 0], rel=1e-10, abs=1e-13)
            assert got[2] == pytest.approx(ref[1, 1], rel=1e-12, abs=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 3),
        st.floats(-8, 2, allow_nan=False),
        st.floats(-4, 4, allow_nan=False),
        st.floats(-8, 2, allow_nan=False),
    )
    def test_random_triangles(self, j, x, w, y):
        p11, p21, p22 = tri_phi(j, x, w, y)
        ref = mat_phi_ref(j, x, w, y)
        assert p21 == pytest.approx(ref[1, 0], rel=1e-9, abs=1e-12)
        assert p11 == pytest.approx(ref[0, 0], rel=1e-12)

    def test_stiff_near_degenerate_pair(self):
        # far outside the series oracle's domain; compare against the
        # longdouble quotient of stable phi values
        x, y = -40.0, -39.99999999
        for j in (1, 2, 3):
            _, p21, _ = tri_phi(j, x, 1.0, y)
            fx, fy = phi_longdouble(j, x), phi_longdouble(j, y)
            ref = float((fx - fy) / (np.longdouble(x) - np.longdouble(y)))
            assert p21 == pytest.approx(ref, rel=1e-8)

    def test_exponential_group_property(self):
        # exp(M) @ exp(M) = exp(2M) entrywise for the triangular family
        x, w, y = -1.3, 0.7, -0.2
        e11, e21, e22 = tri_phi(0, x, w, y)
        d11, d21, d22 = tri_phi(0, 2 * x, 2 * w, 2 * y)
        assert d11 == pytest.approx(e11 * e11, rel=1e-13)
        assert d22 == pytest.approx(e22 * e22, rel=1e-13)
        assert d21 == pytest.approx(e21 * e11 + e22 * e21, rel=1e-12)

    def test_phi1_defining_identity(self):
        # M @ phi1(M) = exp(M) - I
        for x, w, y in [(-0.5, 2.0, -0.1), (-0.05, 4.0, 0.0), (-3.0, 1.0, -3.0)]:
            e11, e21, e22 = tri_phi(0, x, w, y)
            p11, p21, p22 = tri_phi(1, x, w, y)
            assert x * p11 == pytest.approx(e11 - 1.0, rel=1e-12, abs=1e-15)
            assert w * p11 + y * p21 == pytest.approx(e21, rel=1e-11, abs=1e-14)
            assert y * p22 == pytest.approx(e22 - 1.0, rel=1e-12, abs=1e-15)


@pytest.fixture(scope="module")
def act12():
    mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:12"))
    return ActiveModeSet(mod, 1)


def fresh_state(active, equation, scheme, lam=0.1):
    """A new state off the fixed point, with an empty memo."""
    if equation == "sh":
        return sh.make_state(sh.random_ic(active, 0.3, seed=5), lam=lam, scheme=scheme,
                             dt=0.05)
    p = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
    u, v = br.steady_plus_critical_ic(active, p, (1.0, -0.5), 0.05)
    return br.make_bruss_state(u, v, p, dt=0.05, scheme=scheme)


def count_nonlinear(state, monkeypatch):
    """Patch the state's params class to count nonlinear evaluations."""
    calls = []
    cls = type(state.params)
    original = cls.nonlinear

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "nonlinear", counted)
    return calls


EQUATIONS = [(eq, scheme) for eq in ("sh", "bruss") for scheme in etd.SCHEMES]


class TestReprojection:
    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_steps_match_inline_reprojection(self, act12, monkeypatch, equation, scheme):
        # 50 steps through ActiveModeSet.hermitian, and through the projection
        # written out on the (ncomp, nmodes) stack, agree to the last bit
        def fifty_steps(st):
            for _ in range(50):
                st = etd.step(st)
            return st.coeffs

        ours, inline = (fresh_state(act12, equation, scheme) for _ in range(2))
        ours = fifty_steps(ours)
        monkeypatch.setattr(ActiveModeSet, "hermitian",
                            lambda self, a: 0.5 * (a + np.conj(a[:, self.neg_perm])))
        assert fifty_steps(inline).tobytes() == ours.tobytes()

    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_step_projects_onto_hermitian(self, act12, equation, scheme):
        st = fresh_state(act12, equation, scheme)
        rng = np.random.default_rng(4)
        skew = 1e-3 * (rng.normal(size=st.coeffs.shape) + 1j * rng.normal(size=st.coeffs.shape))
        st = replace(st, coeffs=st.coeffs + skew)
        assert act12.hermitian_defect(st.coeffs) > 1e-4
        assert act12.hermitian_defect(etd.step(st).coeffs) == 0.0


class TestTermsMemo:
    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    @pytest.mark.parametrize("T", [0.5, 0.53])
    def test_recorded_run_matches_plain_steps(self, act12, equation, scheme, T):
        # T = 0.53 ends on a fractional step, taken on a state with that dt
        fin, _ = etd.integrate(fresh_state(act12, equation, scheme), T, etd.step,
                               diag_every=1)
        state = fresh_state(act12, equation, scheme)
        n = int(np.floor(T / state.dt + 1e-9))
        for _ in range(n):
            state = etd.step(state)
        if T != n * state.dt:
            state = etd.step(replace(state, dt=T - n * state.dt))
        assert np.array_equal(fin.coeffs, state.coeffs)

    @pytest.mark.parametrize("equation,scheme,per_step",
                             [(eq, sc, 2 if sc == "etdrk2" else 4) for eq, sc in EQUATIONS])
    def test_one_evaluation_per_recorded_state(self, act12, monkeypatch, equation, scheme,
                                               per_step):
        state = fresh_state(act12, equation, scheme)
        calls = count_nonlinear(state, monkeypatch)
        n = 6
        _, traj = etd.integrate(state, n * state.dt, etd.step, diag_every=1)
        assert len(traj) == n + 1
        assert len(calls) == 1 + per_step * n

    @pytest.mark.parametrize("equation", ["sh", "bruss"])
    def test_one_linear_block_per_dt(self, act12, monkeypatch, equation):
        # a recorded run ending on a fractional step builds L for its dt and
        # the remainder's tables, and every record reuses one of them
        state = fresh_state(act12, equation, "etdrk2")
        cls, calls = type(state.params), []
        original = cls.linear_block
        monkeypatch.setattr(cls, "linear_block",
                            lambda self, active: calls.append(1) or original(self, active))
        _, traj = etd.integrate(state, 0.53, etd.step, diag_every=1)
        assert len(traj) == 11
        assert len(calls) == 2

    def test_new_params_recompute(self, act12):
        state = fresh_state(act12, "sh", "etdrk2")
        state.tables()
        state.terms()
        moved = replace(state, params=sh.SHParams(0.3))
        ref = fresh_state(act12, "sh", "etdrk2", lam=0.3)
        assert np.array_equal(moved.tables().hp1.diag, ref.tables().hp1.diag)
        assert all(np.array_equal(x, y) for x, y in zip(moved.terms(), ref.terms()))

    def test_new_active_set_recomputes(self, act12):
        state = fresh_state(act12, "sh", "etdrk2")
        state.tables()
        state.terms()
        # the same field on the N = 2 set: another L and another grid
        other = ActiveModeSet(act12.module, 2)
        c2 = np.zeros((1, len(other)), dtype=complex)
        c2[0, [other.position(m) for m in act12.indices]] = state.coeffs[0]
        moved = replace(state, active=other, coeffs=c2)
        ref = sh.make_state(HullField(other, c2[0]), lam=0.1, dt=0.05)
        assert np.array_equal(moved.tables().hp1.diag, ref.tables().hp1.diag)
        assert all(np.array_equal(x, y) for x, y in zip(moved.terms(), ref.terms()))
        # an equal set that is another object is not taken on trust
        twin = replace(state, active=ActiveModeSet(act12.module, act12.N))
        assert twin.tables() is not state.tables()
        assert all(x is not y for x, y in zip(twin.terms(), state.terms()))

    @pytest.mark.parametrize("equation", ["sh", "bruss"])
    def test_new_coefficients_recompute(self, act12, equation):
        state = fresh_state(act12, equation, "etdrk2")
        state.terms()
        c2 = 1.5 * state.coeffs
        la, n = replace(state, coeffs=c2).terms()
        ref_la, ref_n = replace(fresh_state(act12, equation, "etdrk2"), coeffs=c2).terms()
        assert np.array_equal(la, ref_la) and np.array_equal(n, ref_n)

    def test_new_dt_keeps_the_memo(self, act12, monkeypatch):
        state = fresh_state(act12, "sh", "etdrk2")
        pair = state.terms()
        calls = count_nonlinear(state, monkeypatch)
        shorter = replace(state, dt=0.01, scheme="etdrk4")
        assert all(x is y for x, y in zip(shorter.terms(), pair))
        assert calls == []

    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_unrecorded_step_reduces_no_extrema(self, act12, equation, scheme, monkeypatch):
        state = fresh_state(act12, equation, scheme)
        stepped = etd.step(state)
        etd.step(stepped)  # fills the stepped state's terms memo, not its extrema
        assert stepped._terms[4] is None
        # asked for later, they come off a fresh grid and leave the pair alone
        pair = stepped.terms()
        calls = count_nonlinear(stepped, monkeypatch)
        ext = stepped.extrema()
        assert calls == [] and all(x is y for x, y in zip(stepped.terms(), pair))
        assert ext == replace(stepped, coeffs=stepped.coeffs.copy()).extrema()

    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_stepped_state_starts_empty(self, act12, equation, scheme):
        state = fresh_state(act12, equation, scheme)
        state.terms()
        for stepped in (etd.step(state), etd.step(replace(state, dt=0.02))):
            assert stepped._terms is None
            ref = replace(stepped, coeffs=stepped.coeffs.copy()).terms()
            assert all(np.array_equal(x, y) for x, y in zip(stepped.terms(), ref))

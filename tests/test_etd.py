"""Phi functions, their divided differences and triangular matrix functions;
the (L a, N(a)) pair that the time loop hands from a record to the next step."""

import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiflow import brusselator as br
from quasiflow import etd, sh, snapshots, symmetry
from quasiflow.hull import HERMITIAN_TOL, ActiveModeSet, HullField


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


class TestDividedDifference:
    @pytest.mark.parametrize("j,tol", [(0, 1e-15), (1, 1e-14), (2, 1e-13), (3, 1e-12)])
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
        # a stiff mode against a slow one: e^x underflows and, at j = 0 with
        # the stiff one second, so does e^y in e^y phi_1(x - y) while phi_1 overflows.
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
    """Coefficients are projected onto a_{-m} = conj(a_m) where they enter, never after a step."""

    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_steps_match_inline_reprojection(self, act12, equation, scheme):
        # 50 steps, and 50 steps each followed by the projection written out on
        # the (ncomp, nmodes) stack, agree to the last bit: a step's output is
        # already exactly Hermitian, so a restart's projection keeps its bits
        plain, projected = (fresh_state(act12, equation, scheme) for _ in range(2))
        for _ in range(50):
            plain = etd.step(plain)
            projected = etd.step(projected)
            a = projected.coeffs
            projected = replace(projected, coeffs=0.5 * (a + np.conj(a[:, act12.neg_perm])))
        assert plain.coeffs.tobytes() == projected.coeffs.tobytes()

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_steps_stay_exactly_hermitian(self, equation, scheme, N):
        mod = symmetry.generate_frequency_module(symmetry.build_holohedry("dihedral:12"))
        act = ActiveModeSet(mod, N)
        state = fresh_state(act, equation, scheme)
        rng = np.random.default_rng(9)
        shape = state.coeffs.shape
        kick = 1e-2 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        state = replace(state, coeffs=act.hermitian(state.coeffs + kick))
        for _ in range(200):
            state = etd.step(state)
            assert act.hermitian_defect(state.coeffs) == 0.0
        assert np.abs(state.coeffs.imag).max() > 1e-4  # complex pairs, not only real ones

    @pytest.mark.parametrize("entry", ["make_state", "make_bruss_state", "read_snapshot-sh",
                                       "read_snapshot-bruss"])
    def test_entry_makes_coefficients_exactly_hermitian(self, act12, tmp_path, entry):
        p = br.BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)

        def enter(rows):
            fields = [HullField(act12, row) for row in rows]
            if entry == "make_state":
                return sh.make_state(fields[0], 0.1).coeffs
            if entry == "make_bruss_state":
                return br.make_bruss_state(*fields, p).coeffs
            state = (sh.make_state(fields[0], 0.1) if entry.endswith("sh")
                     else br.make_bruss_state(*fields, p))
            path = tmp_path / "entry.qcs"
            snapshots.write_snapshot(replace(state, coeffs=rows), path)
            return snapshots.read_snapshot(path)[0].coeffs

        ncomp = 1 if entry.endswith("sh") or entry == "make_state" else 2
        rng = np.random.default_rng(8)
        shape = (ncomp, len(act12))
        exact = act12.hermitian(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        zero = act12.zero_position
        exact[:, zero] = np.conj(exact[:, zero].real + 0j)  # a signed zero, kept too
        assert np.all(np.signbit(exact[:, zero].imag))
        skew = 1e-13 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
        skewed = exact + skew
        assert 0.0 < act12.hermitian_defect(skewed) < HERMITIAN_TOL
        assert act12.hermitian_defect(enter(skewed)) == 0.0
        assert enter(exact).tobytes() == exact.tobytes()


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

    @pytest.mark.parametrize("equation", ["sh", "bruss"])
    def test_terms_see_an_in_place_update(self, act12, equation):
        state = fresh_state(act12, equation, "etdrk2")
        state.terms()
        state.coeffs *= 1.5
        ref = replace(fresh_state(act12, equation, "etdrk2"), coeffs=state.coeffs.copy())
        assert all(np.array_equal(x, y) for x, y in zip(state.terms(), ref.terms()))

    @pytest.mark.parametrize("equation,scheme,per_step",
                             [(eq, sc, 2 if sc == "etdrk2" else 4) for eq, sc in EQUATIONS])
    def test_handed_terms_step_bit_for_bit(self, act12, monkeypatch, equation, scheme,
                                           per_step):
        state = etd.step(fresh_state(act12, equation, scheme))
        terms = state.terms()
        assert etd.step(state, terms).coeffs.tobytes() == etd.step(state).coeffs.tobytes()
        # the equations' steps forward the pair, and the step then skips N(a_n)
        forward = sh.step if equation == "sh" else br.bruss_step
        calls = count_nonlinear(state, monkeypatch)
        assert forward(state, terms).coeffs.tobytes() == etd.step(state).coeffs.tobytes()
        assert len(calls) == (per_step - 1) + per_step

    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_unrecorded_step_takes_no_extrema(self, act12, equation, scheme, monkeypatch):
        calls = []

        class Counting(np.ndarray):
            """A product grid that counts the min and max reductions of it.

            Only its views count: arithmetic on it gives plain arrays, so
            the products and coefficients computed from it count nothing.
            """

            def __array_wrap__(self, out, *args, **kwargs):
                return out.view(np.ndarray)

            def min(self, *args, **kwargs):
                calls.append("min")
                return super().min(*args, **kwargs)

            def max(self, *args, **kwargs):
                calls.append("max")
                return super().max(*args, **kwargs)

        original = ActiveModeSet.grid_values
        monkeypatch.setattr(ActiveModeSet, "grid_values",
                            lambda self, *a, **k: original(self, *a, **k).view(Counting))
        state = fresh_state(act12, equation, scheme)
        for _ in range(3):
            state = etd.step(state)
        assert calls == []
        # a run records its first and last states, and reduces each one's grid
        _, traj = etd.integrate(state, 3 * state.dt, etd.step, diag_every=10)
        assert len(traj) == 2 and calls == ["min", "max"] * 2

    @pytest.mark.parametrize("equation,scheme", EQUATIONS)
    def test_stepped_state_starts_empty(self, act12, equation, scheme):
        state = fresh_state(act12, equation, scheme)
        state.terms()
        for stepped in (etd.step(state), etd.step(replace(state, dt=0.02))):
            ref = replace(stepped, coeffs=stepped.coeffs.copy()).terms()
            assert all(np.array_equal(x, y) for x, y in zip(stepped.terms(), ref))

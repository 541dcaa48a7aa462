"""Truncated hull fields: mode sets, norms, products, condition checks."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiflow import diagnostics, hull, sh
from quasiflow.brusselator import BrusselatorParams
from quasiflow.hull import (
    ActiveModeSet,
    DimensionUnsupported,
    EmptyActiveSet,
    HullField,
    ImaginaryResidue,
    InactiveMode,
    condition_iii_check,
    l1_hs_bound_constant,
    render_image,
)
from quasiflow.symmetry import build_holohedry, generate_frequency_module, integer_box
from quasiflow.verification import VERTEX_K0


@pytest.fixture(scope="module")
def mod12():
    return generate_frequency_module(build_holohedry("dihedral:12"))


@pytest.fixture(scope="module")
def mod4():
    return generate_frequency_module(build_holohedry("dihedral:4"))


@pytest.fixture(scope="module")
def mod2():
    return generate_frequency_module(build_holohedry("dihedral:2"))


@pytest.fixture(scope="module")
def act12(mod12):
    return ActiveModeSet(mod12, 1)


def dict_convolve(*term_maps):
    """Reference convolution over {index tuple: coefficient} dicts."""
    out = dict(term_maps[0])
    for terms in term_maps[1:]:
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in terms.items():
                key = tuple(np.add(m1, m2))
                nxt[key] = nxt.get(key, 0.0 + 0.0j) + c1 * c2
        out = nxt
    return out


def as_dict(act, coeffs):
    return {tuple(m): c for m, c in zip(act.indices, coeffs)}


def mode(act, m, value):
    """Coefficients holding a_m = value and its Hermitian partner, zero elsewhere."""
    coeffs = np.zeros(len(act), dtype=complex)
    act.set_mode(coeffs, m, value)
    return coeffs


def grid_product(act, f, g):
    """Retained coefficients of f*g from one product on the product grid."""
    return act.coefficients_from_grid(act.grid_values(f) * act.grid_values(g))


def cube(act, coeffs):
    """Retained coefficients of u^3, from the Swift-Hohenberg N(u) = -u^3."""
    return -sh.SHParams(0.2).nonlinear(act.grid_values(coeffs[None]), act)[0]


def minmax(act, coeffs, axis_points):
    """(min, max) of the field over a uniform torus grid."""
    vals = act.grid_values(coeffs, axis_points)
    return vals.min(), vals.max()


def quartic_mean(act, coeffs):
    """mean(u^4) by Parseval: Re<a, u^3>."""
    return float(np.vdot(coeffs, cube(act, coeffs)).real)


def sh_energy(act, coeffs, lam):
    """The recorded Swift-Hohenberg energy, from the state's (L a, N(a))."""
    st = sh.make_state(HullField(act, coeffs), lam)
    return st.params.energy(st.coeffs, *st.terms())


def recorded(act, coeffs, s):
    """The diagnostics record, Sobolev index s, of a state holding ``coeffs``.

    The grid and (L a, N(a)) are computed as the time loop computes them.
    """
    st = sh.make_state(HullField(act, coeffs), 0.2)
    grids = st.active.grid_values(st.coeffs)
    return diagnostics.record(st, grids, st.terms(grids), s=s)


def random_hermitian(active, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=len(active)) + 1j * rng.normal(size=len(active))
    return active.hermitian(scale * raw)


def images(act):
    """The (order, nmodes) table of the positions of every g m, in Python."""
    pos = {tuple(m): i for i, m in enumerate(act.indices.tolist())}
    return np.array([[pos[tuple(m)] for m in (act.indices @ rep.T).tolist()]
                     for rep in act.module.integer_reps])


def assert_orbits_match_images(act):
    """``orbit`` and ``orbit_blocks`` hold the orbits the image table implies."""
    table = images(act)
    assert act.orbit.dtype == np.int32
    assert np.array_equal(act.orbit, table.min(axis=0))
    orbits = {}
    for i in range(len(act)):
        orbits.setdefault(table[:, i].min(), sorted(set(table[:, i].tolist())))
    expected = sorted(orbits.values(), key=lambda o: (len(o), o[0]))
    assert [row for block in act.orbit_blocks for row in block.tolist()] == expected
    sizes = [block.shape[1] for block in act.orbit_blocks]
    assert sizes == sorted(set(sizes))


# (holohedry, N); "vertex" is the icosahedral module seeded on a vertex
# axis, the rank-6 module of battery check 12b; dihedral:16 has rank 8.
# The dict oracles below take 7-9 s each at vertex N = 2, so it is left out
ACTIVE_CASES = (
    [("dihedral:4", 2)]
    + [(f"dihedral:{n}", N) for n in (8, 10, 12) for N in (1, 2, 3)]
    + [("vertex", 1), ("dihedral:16", 1)]
)


@pytest.fixture(scope="module", params=ACTIVE_CASES, ids=lambda c: f"{c[0]}-N{c[1]}")
def active_case(request):
    name, N = request.param
    if name == "vertex":
        module = generate_frequency_module(build_holohedry("icosahedral"), VERTEX_K0)
    else:
        module = generate_frequency_module(build_holohedry(name))
    return ActiveModeSet(module, N)


# every module a built-in spec gives (as in test_symmetry.py), each at the
# largest N whose index box stays near 10^4 rows: 7^p up to p = 4, 5^6, 3^8
PLANAR_ORDERS = [q for q in range(2, 31, 2) if q not in (22, 26, 28)]
BUILT = [f"{family}:{q}" for family in ("cyclic", "dihedral") for q in PLANAR_ORDERS]
BUILT += ["icosahedral", "icosahedral-vertex"]
BUILT_N = {1: 3, 2: 3, 4: 3, 6: 2, 8: 1}


@cache
def built_active(name):
    if name == "icosahedral-vertex":
        module = generate_frequency_module(build_holohedry("icosahedral"), VERTEX_K0)
    else:
        module = generate_frequency_module(build_holohedry(name))
    return ActiveModeSet(module, BUILT_N[module.rank])


@cache
def built_images(name):
    return images(built_active(name))


class TestActiveModeSet:
    def test_single_mode_at_zero_truncation(self, mod12):
        assert len(ActiveModeSet(mod12, 0)) == 1

    def test_zero_truncation_has_no_generator_orbit(self, mod12):
        with pytest.raises(EmptyActiveSet, match="N = 0"):
            ActiveModeSet(mod12, 0).k0_orbit()

    def test_oversized_index_box_refused(self, mod12):
        # refused before the (2N+1)^4 box of int64 indices is allocated
        with pytest.raises(hull.TooLarge, match="index box"):
            ActiveModeSet(mod12, 10 ** 6)

    @pytest.mark.parametrize("N,count", [(1, 49), (2, 361), (3, 1369)])
    def test_twelvefold_counts(self, mod12, N, count):
        assert len(ActiveModeSet(mod12, N)) == count

    def test_invariant_under_every_group_element(self, active_case):
        members = {tuple(m) for m in active_case.indices}
        for rep in active_case.module.integer_reps:
            for m in active_case.indices:
                assert tuple(rep @ m) in members

    def test_maximality(self, active_case):
        # every discarded box index has an orbit member leaving the box
        act = active_case
        members = {tuple(m) for m in act.indices}
        candidates = {tuple(m) for m in integer_box(act.rank, act.N)}
        for m in candidates - members:
            assert any(
                tuple(rep @ np.array(m)) not in candidates
                for rep in act.module.integer_reps
            )

    def test_closed_under_negation(self, active_case):
        members = {tuple(m) for m in active_case.indices}
        assert all(tuple(-m) in members for m in active_case.indices)

    def test_partners_share_squared_wavenumbers(self, active_case):
        # bitwise: every ETD table is then equal on m and -m, so a step keeps
        # exactly Hermitian coefficients exactly Hermitian
        act = active_case
        assert act.ksq[act.neg_perm].tobytes() == act.ksq.tobytes()

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "two"])
    def test_forward_transform_is_exactly_hermitian(self, active_case, lead):
        # one slot per conjugate pair, on the product grid and an even one
        act = active_case
        rng = np.random.default_rng(12)
        for G in (act.product_axis_points, 2 * act.N + 2):
            back = act.coefficients_from_grid(rng.normal(size=lead + (G,) * act.rank))
            assert back.shape == lead + (len(act),)
            assert act.hermitian_defect(back) == 0.0

    def test_permutation_tables(self, active_case):
        act = active_case
        assert_orbits_match_images(act)
        pos = {tuple(m): i for i, m in enumerate(act.indices)}
        assert [pos[tuple(-m)] for m in act.indices] == list(act.neg_perm)

    @pytest.mark.parametrize("name,N", [(name, None) for name in BUILT]
                             + [("icosahedral", 1), ("icosahedral-vertex", 1)])
    def test_orbits_on_every_built_module(self, name, N):
        # every built module while its box is small; both icosahedral seeds
        # at N = 2 (BUILT_N) and N = 1
        act = built_active(name)
        assert_orbits_match_images(act if N is None else ActiveModeSet(act.module, N))

    @pytest.mark.parametrize("name", BUILT)
    def test_keep_mask_over_every_row(self, name):
        # the build tests one row of each +- pair of rep rows; the full mask
        # here tests every row of every rep
        act = built_active(name)
        box = integer_box(act.rank, act.N)
        rows = act.module.integer_reps.reshape(-1, act.rank)
        keep = np.abs(box @ rows.T).max(axis=1) <= act.N
        assert np.array_equal(act.indices, box[keep])

    def test_lexicographic_order(self, act12):
        rows = [tuple(m) for m in act12.indices]
        assert rows == sorted(rows)

    def test_reduction_to_the_zero_mode_is_empty(self, mod12):
        # doubled representations map every nonzero index of the N = 1 box,
        # each generator among them, out of the box
        doubled = replace(mod12, integer_reps=2 * mod12.integer_reps)
        with pytest.raises(EmptyActiveSet, match="raise N"):
            ActiveModeSet(doubled, 1)

    def test_bad_arguments(self, mod12):
        with pytest.raises(ValueError):
            ActiveModeSet(mod12, -1)

    def test_position_lookup(self, act12):
        for i, m in enumerate(act12.indices):
            assert act12.position(m) == i
        with pytest.raises(InactiveMode):
            act12.position([9, 9, 9, 9])
        with pytest.raises(InactiveMode):
            act12.position([1, 0, 0])
        with pytest.raises(InactiveMode):
            act12.position([[1, 0], [0, 0]])
        with pytest.raises(InactiveMode):
            act12.position([0.5, 0, 0, 0])
        members = {tuple(m) for m in act12.indices}
        outside = [m for m in integer_box(4, 1) if tuple(m) not in members]
        assert outside
        for m in outside:
            with pytest.raises(InactiveMode):
                act12.position(m)
        act = ActiveModeSet(act12.module, 2)
        assert act.position([1.0, 0, 0, 0]) == act.position([1, 0, 0, 0]) == 268


class TestCoefficientAccess:
    def test_hermitian_partner_real(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        assert f[act12.position([-1, 0, 0, 0])] == 1.0

    def test_hermitian_partner_imaginary(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1j)
        assert f[act12.position([-1, 0, 0, 0])] == -1j

    def test_untouched_mode_is_zero(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        assert f[act12.position([0, 1, 0, 0])] == 0.0
        assert np.count_nonzero(f) == 2

    def test_zero_mode_must_stay_real(self, act12):
        f = np.zeros(len(act12), dtype=complex)
        with pytest.raises(ValueError):
            act12.set_mode(f, [0, 0, 0, 0], 1j)
        assert not f.any()

    def test_inactive_mode_rejected(self, act12):
        f = np.zeros(len(act12), dtype=complex)
        with pytest.raises(InactiveMode):
            act12.set_mode(f, [2, 0, 0, 0], 1.0)

    def test_set_mode_writes_every_row(self, act12):
        rows = np.ones((2, len(act12)), dtype=complex)
        act12.set_mode(rows, [1, 1, 0, 0], 0.5 + 0.25j)
        single = np.ones(len(act12), dtype=complex)
        act12.set_mode(single, [1, 1, 0, 0], 0.5 + 0.25j)
        assert np.array_equal(rows, np.stack((single, single)))
        assert single[act12.position([-1, -1, 0, 0])] == 0.5 - 0.25j

    def test_hermitian_defect(self, act12):
        rng = np.random.default_rng(7)
        f = rng.normal(size=49) + 1j * rng.normal(size=49)
        assert act12.hermitian_defect(f) > 0.1
        assert act12.hermitian_defect(act12.hermitian(f)) < 1e-14


class TestNorms:
    def test_cosine_pair(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        assert np.isclose(np.linalg.norm(f), np.sqrt(2.0))
        assert np.isclose(np.abs(f).sum(), 2.0)
        assert np.isclose(recorded(act12, f, 0.0).hs, np.linalg.norm(f))

    def test_sobolev_weight(self, act12):
        f = mode(act12, [1, 1, 0, 0], 1.0)
        rec = recorded(act12, f, 1.0)
        assert np.isclose(rec.hs, np.sqrt(6.0))
        assert np.isclose(rec.grad_hull_sq, 4.0)

    def test_bound_constant_singleton(self, mod12):
        act0 = ActiveModeSet(mod12, 0)
        assert np.isclose(l1_hs_bound_constant(act0, 3.0), 1.0)

    def test_bound_constant_three_modes(self, mod2):
        act = ActiveModeSet(mod2, 1)
        assert np.isclose(l1_hs_bound_constant(act, 1.0), np.sqrt(2.0))

    def test_low_exponent_warns(self, act12):
        with pytest.warns(UserWarning):
            l1_hs_bound_constant(act12, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_l1_bounded_by_weighted_l2(self, act12, seed):
        f = random_hermitian(act12, seed)
        C = l1_hs_bound_constant(act12, 3.0)
        assert np.abs(f).sum() <= C * recorded(act12, f, 3.0).hs + 1e-12


class TestSymmetrize:
    def test_delta_spreads_to_sixth(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        s = act12.symmetrize(f)
        orbit = act12.k0_orbit()
        assert len(orbit) == 12
        assert np.allclose(s[orbit], 1.0 / 6.0)
        mask = np.ones(len(act12), dtype=bool)
        mask[orbit] = False
        assert np.allclose(s[mask], 0.0)

    def test_idempotent(self, act12):
        s = act12.symmetrize(random_hermitian(act12, 11))
        assert np.allclose(act12.symmetrize(s), s, atol=1e-15)
        assert act12.symmetry_drift(s) <= 1e-14

    def test_zero_fixed(self, act12):
        assert np.linalg.norm(act12.symmetrize(np.zeros(len(act12), dtype=complex))) == 0.0

    def test_orthogonal_projection(self, act12):
        f = random_hermitian(act12, 12)
        g = random_hermitian(act12, 13)
        sf, sg = act12.symmetrize(f), act12.symmetrize(g)
        cross = np.sum(sf * np.conj(g - sg))
        assert abs(cross) < 1e-10
        assert np.linalg.norm(sf) <= np.linalg.norm(f) + 1e-12

    def test_drift_measures_asymmetry(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        assert act12.symmetry_drift(f) == pytest.approx(1.0)
        assert act12.symmetry_drift(act12.symmetrize(f)) < 1e-15

    def test_drift_equals_loop_over_group(self, act12):
        # the max over group elements of the max over modes, one by one
        f = (act12.symmetrize(random_hermitian(act12, 14))
             + 1e-13 * random_hermitian(act12, 15))
        loop = max(np.abs(f[perm] - f).max() for perm in images(act12))
        assert act12.symmetry_drift(f) == loop

    def test_drift_over_chunks(self):
        # the 120-mode orbits of icosahedral-vertex N = 2 go 9 to a chunk
        act = built_active("icosahedral-vertex")
        f = (act.symmetrize(random_hermitian(act, 17))
             + 1e-13 * random_hermitian(act, 18))
        loop = max(np.abs(f[perm] - f).max() for perm in built_images("icosahedral-vertex"))
        assert act.symmetry_drift(f) == loop
        # one mode off, in each orbit in turn
        for block in act.orbit_blocks:
            for row in block:
                g = np.zeros(len(act), dtype=complex)
                g[row[-1]] = 1.0
                assert act.symmetry_drift(g) == (1.0 if len(row) > 1 else 0.0)

    @pytest.mark.parametrize("name", ["dihedral:12", "icosahedral-vertex"])
    @pytest.mark.parametrize("base,noise,drift", [(1.0, 0.0, "zero"), (0.0, 1e-310, "subnormal"),
                                                  (1.0, 1.0, "order one")])
    def test_stacked_drift(self, name, base, noise, drift):
        # three rows at once, against each row alone and against the group
        # loop; icosahedral-vertex N = 2 takes its 120-mode orbits in chunks
        act = built_active(name)
        rows = np.stack([base * act.symmetrize(random_hermitian(act, seed))
                         + noise * random_hermitian(act, seed + 10)
                         for seed in (20, 21, 22)])
        stacked = act.symmetry_drift(rows)
        assert stacked == max(act.symmetry_drift(row) for row in rows)
        table = built_images(name)
        assert stacked == max(np.abs(row[perm] - row).max() for row in rows for perm in table)
        assert {"zero": stacked == 0.0, "subnormal": 0.0 < stacked < 1e-308,
                "order one": stacked > 0.1}[drift]

    def test_hermitian_rows(self, act12):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(2, 49)) + 1j * rng.normal(size=(2, 49))
        rows[1] *= 10.0  # the larger defect is in the second row
        proj = act12.hermitian(rows)
        for row, p in zip(rows, proj):
            assert np.array_equal(p, act12.hermitian(row))
            assert np.array_equal(p, np.conj(p[act12.neg_perm]))
        assert act12.hermitian_defect(rows) == max(act12.hermitian_defect(r) for r in rows)
        assert act12.hermitian_defect(proj) == 0.0

    @pytest.mark.parametrize("name", ["dihedral:12", "icosahedral-vertex"])
    def test_stacked_symmetrize(self, name):
        # three rows at once, against each row alone
        act = built_active(name)
        rows = np.stack([random_hermitian(act, seed) for seed in (23, 24, 25)])
        sym = act.symmetrize(rows)
        for s, row in zip(sym, rows):
            assert np.array_equal(s, act.symmetrize(row))
        assert np.abs(act.symmetrize(sym) - sym).max() <= 1e-15
        assert act.symmetry_drift(sym) == 0.0

    @pytest.mark.parametrize("name", ["dihedral:12", "cyclic:10", "icosahedral-vertex"])
    def test_orbit_mean_is_group_mean(self, name):
        # the group mean correctly rounded: a running sum over 120 elements
        # alone strays 1.8e-15 on icosahedral-vertex
        act = built_active(name)
        f = random_hermitian(act, 16)
        group_mean = [complex(math.fsum(a.real), math.fsum(a.imag)) / len(a)
                      for a in f[built_images(name)].T]
        s = act.symmetrize(f)
        assert np.abs(s - group_mean).max() <= 1e-15
        assert act.symmetry_drift(s) == 0.0


class TestPointwiseProduct:
    def test_cosine_square(self, mod2):
        act = ActiveModeSet(mod2, 2)
        f = mode(act, [1], 1.0)
        p = grid_product(act, f, f)
        assert np.isclose(p[act.position([0])], 2.0)
        assert np.isclose(p[act.position([2])], 1.0)
        assert np.isclose(p[act.position([1])], 0.0)

    def test_zero_absorbs(self, act12):
        f = random_hermitian(act12, 21)
        z = np.zeros(len(act12), dtype=complex)
        assert np.linalg.norm(grid_product(act12, f, z)) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_convolution(self, mod4, seed):
        act = ActiveModeSet(mod4, 2)
        f = random_hermitian(act, seed)
        g = random_hermitian(act, seed + 100)
        p = grid_product(act, f, g)
        ref = dict_convolve(as_dict(act, f), as_dict(act, g))
        for m, c in as_dict(act, p).items():
            assert abs(c - ref.get(m, 0.0)) < 1e-12

    def test_cubic_of_cosine(self, mod2):
        # 8 cos^3 = 6 cos + 2 cos 3t
        act = ActiveModeSet(mod2, 3)
        c = cube(act, mode(act, [1], 1.0))
        assert np.isclose(c[act.position([1])], 3.0)
        assert np.isclose(c[act.position([3])], 1.0)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_cubic_matches_triple_convolution(self, mod4, seed):
        act = ActiveModeSet(mod4, 2)
        f = random_hermitian(act, seed)
        ref = dict_convolve(as_dict(act, f), as_dict(act, f), as_dict(act, f))
        for m, v in as_dict(act, cube(act, f)).items():
            assert abs(v - ref.get(m, 0.0)) < 1e-12

    def test_triple_product_matches_convolution(self, mod4):
        # -N_v = u^2 v, whatever the parameters: the feed A enters N_u only
        act = ActiveModeSet(mod4, 2)
        u, v = (random_hermitian(act, s) for s in (31, 33))
        params = BrusselatorParams(A=2.0, B=4.2, d1=1.0, d2=4.0)
        grids = act.grid_values(np.stack((u, v)))
        t = -params.nonlinear(grids, act)[1]
        ref = dict_convolve(as_dict(act, u), as_dict(act, u), as_dict(act, v))
        for m, c in as_dict(act, t).items():
            assert abs(c - ref.get(m, 0.0)) < 1e-12

    def test_truncated_chaining_differs_from_true_triple(self, mod2):
        # restricting the intermediate square to the active set drops tail
        # modes that feed back into retained ones
        act = ActiveModeSet(mod2, 1)
        f = mode(act, [1], 1.0)
        chained = grid_product(act, grid_product(act, f, f), f)
        assert np.isclose(chained[act.position([1])], 2.0)
        assert np.isclose(cube(act, f)[act.position([1])], 3.0)

    def test_insufficient_padding_rejected(self, act12):
        # dealias survives only as the value 2; the grid is not a choice
        f = HullField(act12, np.zeros(len(act12), dtype=complex))
        for dealias in (1, 3):
            with pytest.raises(ValueError, match="dealias"):
                sh.make_state(f, 0.2, dealias=dealias)

    def test_quartic_mean(self, mod2):
        act = ActiveModeSet(mod2, 2)
        assert np.isclose(quartic_mean(act, mode(act, [1], 1.0)), 6.0)


class TestInnerProduct:
    def test_self_inner_is_norm_squared(self, act12):
        # Parseval on the product grid
        f = random_hermitian(act12, 41)
        vals = act12.grid_values(f)
        assert np.isclose(np.mean(vals * vals), np.linalg.norm(f) ** 2)

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_product_associativity(self, mod4, seed):
        act = ActiveModeSet(mod4, 2)
        u, v, w = (random_hermitian(act, seed + 10 * j) for j in range(3))
        lhs = np.vdot(u, grid_product(act, v, w)).real
        rhs = np.vdot(grid_product(act, u, v), w).real
        assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_square_cauchy_schwarz(self, mod4, seed):
        act = ActiveModeSet(mod4, 2)
        u = random_hermitian(act, seed)
        assert np.linalg.norm(u) ** 4 <= quartic_mean(act, u) + 1e-12

    def test_square_cauchy_schwarz_hand_value(self, mod2):
        act = ActiveModeSet(mod2, 2)
        u = mode(act, [1], 1.0)
        assert np.isclose(np.linalg.norm(u) ** 4, 4.0)
        assert np.isclose(quartic_mean(act, u), 6.0)


class TestEnergy:
    def test_zero_field(self, act12):
        assert sh_energy(act12, np.zeros(len(act12), dtype=complex), 0.3) == 0.0

    def test_unit_ring_pair(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        for lam in (0.0, 0.2, 1.0):
            assert np.isclose(sh_energy(act12, f, lam), 1.5 - lam)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lower_bound(self, act12, seed):
        u = random_hermitian(act12, seed, scale=0.3)
        lam = 0.4
        mass = np.linalg.norm(u) ** 2
        assert sh_energy(act12, u, lam) >= 0.25 * (mass ** 2 - 2 * lam * mass) - 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-0.5, 1.0))
    def test_matches_grid_quartic(self, mod4, seed, lam):
        # oracle: the functional term by term, the quartic as a grid mean of
        # u^4 on the product grid and on a finer 3(2N+1) grid, independent of
        # N(a): both are exact for G >= 4N+1
        act = ActiveModeSet(mod4, 2)
        u = random_hermitian(act, seed)
        a2 = np.abs(u) ** 2
        got = sh_energy(act, u, lam)
        for G in (act.product_axis_points, 3 * (2 * act.N + 1)):
            terms = np.array([
                0.5 * np.sum((1.0 - act.ksq) ** 2 * a2),
                -0.5 * lam * np.sum(a2),
                0.25 * np.mean(act.grid_values(u, G) ** 4),
            ])
            assert abs(got - terms.sum()) <= 1e-12 * np.abs(terms).sum()


class TestEvaluatePhysical:
    def test_at_origin_sums_coefficients(self, act12):
        f = random_hermitian(act12, 51)
        val = act12.evaluate_physical(f, np.zeros((1, 2)))
        assert np.isclose(val[0], np.sum(f).real)

    def test_cosine_at_half_period(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        x = np.array([[np.pi, 0.0]])
        assert np.isclose(act12.evaluate_physical(f, x)[0], -2.0)

    def test_overflowing_phase_refused(self, act12):
        f = act12.symmetrize(random_hermitian(act12, 57))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite field value"):
                act12.evaluate_physical(f, np.array([[1e308, 0.0]]))

    def test_broken_symmetry_raises(self, act12):
        f = np.zeros(len(act12), dtype=complex)
        f[act12.position([1, 0, 0, 0])] = 1.0
        with pytest.raises(ImaginaryResidue):
            act12.evaluate_physical(f, np.random.default_rng(0).normal(size=(5, 2)))

    def test_group_invariance_pointwise(self, act12):
        u = act12.symmetrize(random_hermitian(act12, 52))
        rng = np.random.default_rng(53)
        xs = rng.normal(scale=5.0, size=(20, 2))
        base = act12.evaluate_physical(u, xs)
        for mat in act12.module.holohedry.matrices:
            rotated = act12.evaluate_physical(u, xs @ mat.T)
            assert np.allclose(rotated, base, atol=1e-10)

    def test_near_period(self, act12):
        # 7953*(1+sqrt(3))/2 sits 3.6e-5 from an integer (continued-fraction
        # convergent), so the diagonal shift nearly restores all four
        # generator phases mod 2pi
        u = act12.symmetrize(random_hermitian(act12, 54))
        h = 2 * np.pi * 7953.0 * np.array([1.0, 1.0])
        phases = act12.module.generators @ h
        residue = np.abs((phases + np.pi) % (2 * np.pi) - np.pi).max()
        assert residue < 1e-3
        rng = np.random.default_rng(55)
        xs = rng.normal(scale=10.0, size=(100, 2))
        drift = np.abs(act12.evaluate_physical(u, xs + h) - act12.evaluate_physical(u, xs))
        assert np.all(drift <= np.abs(u).sum() * residue + 1e-12)


class TestGridAndParseval:
    def test_parseval_on_exact_grid(self, act12):
        u = random_hermitian(act12, 61)
        vals = act12.grid_values(u, 2 * act12.N + 1)
        assert np.isclose(np.mean(vals ** 2), np.linalg.norm(u) ** 2, rtol=1e-10)

    def test_norm_ordering(self, act12):
        for seed in range(5):
            u = random_hermitian(act12, 70 + seed)
            sup = np.abs(act12.grid_values(u, 9)).max()
            assert np.linalg.norm(u) <= sup + 1e-12
            assert sup <= np.abs(u).sum() + 1e-12

    def test_roundtrip_preserves_coefficients(self, act12):
        u = random_hermitian(act12, 62)
        back = act12.coefficients_from_grid(act12.grid_values(u))
        assert np.allclose(back, u, atol=1e-13)

    def test_minmax_of_cosine(self, mod4):
        act = ActiveModeSet(mod4, 1)
        u = mode(act, [1, 0], 1.0)
        lo, hi = minmax(act, u, 64)
        assert np.isclose(lo, -2.0, atol=1e-9) and np.isclose(hi, 2.0, atol=1e-9)


def complex_reference_grid(active, coeffs, G):
    """Full complex spectrum scattered and inverted with numpy's ifftn."""
    spread = np.zeros(coeffs.shape[:-1] + (G,) * active.rank, dtype=complex)
    spread[(...,) + tuple((active.indices % G).T)] = coeffs
    axes = tuple(range(-active.rank, 0))
    return np.fft.ifftn(spread, axes=axes) * G ** active.rank


def complex_reference_coefficients(active, vals):
    """Retained coefficients gathered from numpy's complex fftn."""
    G, axes = vals.shape[-1], tuple(range(-active.rank, 0))
    spec = np.fft.fftn(vals, axes=axes) / G ** active.rank
    return spec[(...,) + tuple((active.indices % G).T)]


# rank 4 and 6 as in battery checks 12a/12b; rank 8 is the whole 3^8 box
# plus twelvefold N = 3, whose product grid G = 13 is prime
TRANSFORM_SETS = {"rank4": ("dihedral:12", 2), "rank4-N3": ("dihedral:12", 3),
                  "rank6": ("vertex", 1), "rank8": ("dihedral:16", 1)}


@cache
def transform_active(case):
    name, N = TRANSFORM_SETS[case]
    if name == "vertex":
        module = generate_frequency_module(build_holohedry("icosahedral"), VERTEX_K0)
        return ActiveModeSet(module, N)
    return ActiveModeSet(generate_frequency_module(build_holohedry(name)), N)


# axis lengths: 2N+1 (no padding), 8, the product grid (the default), and 2
# and 3 times 2N+1 (even, and odd above the product grid); 4 is the even
# grid of rank 8 at N = 1
TRANSFORM_GRIDS = {"exact": lambda N: 2 * N + 1, "eight": lambda N: 8,
                   "product": lambda N: None, "pad2": lambda N: 2 * (2 * N + 1),
                   "pad3": lambda N: 3 * (2 * N + 1), "four": lambda N: 4}
# rank 8 only where three stacked complex reference grids stay small: 3^8,
# 4^8 and 5^8 points
TRANSFORM_CASES = [(case, grid) for case in ("rank4", "rank6")
                   for grid in TRANSFORM_GRIDS if grid != "four"] \
    + [("rank4-N3", "product")] + [("rank8", grid) for grid in ("exact", "four", "product")]


class TestRealTransforms:
    """The pruned half-spectrum transforms against numpy's complex ones."""

    @pytest.mark.parametrize("case,grid", TRANSFORM_CASES,
                             ids=[f"{case}-{grid}" for case, grid in TRANSFORM_CASES])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_match_complex_reference(self, case, grid, seed):
        act = transform_active(case)
        kw = {"axis_points": TRANSFORM_GRIDS[grid](act.N)}
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(3, len(act))) + 1j * rng.normal(size=(3, len(act)))
        a = 0.5 * (raw + np.conj(raw[:, act.neg_perm]))
        # a grid value sums every mode, so its round-off grows like the square
        # root of the mode count; the bound was set on at most 729 modes
        scale = np.abs(a).max() * max(1.0, np.sqrt(len(act) / 729))

        vals = act.grid_values(a, **kw)
        G = vals.shape[-1]
        assert G == (kw["axis_points"] or act.product_axis_points)
        assert vals.shape == (3,) + (G,) * act.rank and vals.dtype == float
        ref = complex_reference_grid(act, a, G)
        assert np.abs(ref.imag).max() <= 1e-13 * scale
        assert np.abs(vals - ref.real).max() <= 1e-13 * scale

        back = act.coefficients_from_grid(vals)
        assert act.hermitian_defect(back) == 0.0
        assert np.abs(back - complex_reference_coefficients(act, vals)).max() <= 1e-13 * scale
        assert np.abs(back - a).max() <= 1e-13 * scale

        assert np.array_equal(vals, np.stack([act.grid_values(c, **kw) for c in a]))
        assert np.array_equal(back, np.stack([act.coefficients_from_grid(v) for v in vals]))

    @pytest.mark.parametrize("case", ["rank4", "rank6", "rank8"])
    def test_any_lead_shape_matches_single_calls(self, case):
        # the axis rotation must keep every lead axis in place: a (2, 3)
        # stack is bit-equal slice by slice, and an unstacked field matches
        # the complex reference
        act = transform_active(case)
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(2, 3, len(act))) + 1j * rng.normal(size=(2, 3, len(act)))
        a = 0.5 * (raw + np.conj(raw[..., act.neg_perm]))
        vals = act.grid_values(a)
        G = act.product_axis_points
        assert vals.shape == (2, 3) + (G,) * act.rank and vals.dtype == float
        back = act.coefficients_from_grid(vals)
        assert back.shape == a.shape and back.dtype == complex
        for i, j in np.ndindex(2, 3):
            single = act.grid_values(a[i, j])
            assert single.shape == (G,) * act.rank
            assert np.array_equal(vals[i, j], single)
            assert np.array_equal(back[i, j], act.coefficients_from_grid(single))
        scale = np.abs(a[0, 0]).max() * max(1.0, np.sqrt(len(act) / 729))
        ref = complex_reference_grid(act, a[0, 0], G)
        assert np.abs(vals[0, 0] - ref.real).max() <= 1e-13 * scale
        assert np.abs(back[0, 0] - a[0, 0]).max() <= 1e-13 * scale

    def test_tables_are_c_contiguous(self):
        # an F-ordered last-axis table took the inverse product at half speed
        for case, grid in TRANSFORM_CASES:
            act = transform_active(case)
            _, *tables = act._transforms(TRANSFORM_GRIDS[grid](act.N))
            assert all(t.flags.c_contiguous for t in tables), (case, grid)

    def test_product_grid_is_4n_plus_1(self, mod4):
        # the smallest alias-free grid for cubic products, prime or not
        got = [ActiveModeSet(mod4, N).product_axis_points for N in range(7)]
        assert got == [1, 5, 9, 13, 17, 21, 25]

    def test_constant_grid_transforms_exactly(self, act12):
        # 8.4 is the Brusselator steady state's u^2 v; an FFT of G^p copies
        # can sum it one ulp off, which a long ETD step amplifies
        for G in (5, 9, 13, 14):
            back = act12.coefficients_from_grid(np.full((2,) + (G,) * 4, 8.4))
            assert np.all(back[:, act12.position([0, 0, 0, 0])] == 8.4)
            assert np.count_nonzero(back) == 2

    def test_oversized_grid_refused(self, act12):
        u = random_hermitian(act12, 3)
        side = int(round((hull.MAX_GRID_BYTES / 8) ** 0.25)) + 1
        with pytest.raises(hull.TooLarge, match="MiB"):
            act12.grid_values(u, side)
        # rank 8 at N = 2 would run on 9^8 points (328 MiB per component)
        rank8 = transform_active("rank8")
        with pytest.raises(hull.TooLarge, match="9\\^8"):
            rank8.grid_values(np.zeros(len(rank8), dtype=complex), 9)
        # icosahedral N=3 and twelvefold N=15 product grids fit
        assert 8 * 13 ** 6 <= hull.MAX_GRID_BYTES and 8 * 61 ** 4 <= hull.MAX_GRID_BYTES


def support_ranks(act, coeffs, eps):
    """(integer, real) rank of the eps-support, |a_m| > eps, the classifier reads."""
    rep = diagnostics.classify_quasicrystal(act, coeffs, [eps], M=1.0, r=0.5)
    return rep.support_integer_rank, rep.support_real_rank


class TestSupportAndConditions:
    def test_support_empty_for_zero(self, act12):
        assert support_ranks(act12, np.zeros(len(act12), dtype=complex), 0.0) == (0, 0)

    def test_support_threshold(self, act12):
        f = mode(act12, [1, 0, 0, 0], 0.5)
        assert support_ranks(act12, f, 0.25) == (1, 1)
        assert support_ranks(act12, f, 0.5) == (0, 0)

    def test_symmetrized_orbit_support(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        s = act12.symmetrize(f)
        assert np.count_nonzero(np.abs(s) > 1.0 / 12.0) == 12
        assert support_ranks(act12, s, 1.0 / 12.0) == (4, 2)

    def test_negative_threshold_refused(self, act12):
        with pytest.raises(ValueError, match="nonnegative"):
            diagnostics.classify_quasicrystal(act12, np.zeros(len(act12), dtype=complex),
                                              [-1.0, 1.0], M=1.0, r=0.5)

    def test_zero_field_fails_covering(self, act12):
        ok, uncovered = condition_iii_check(act12, np.zeros(len(act12), dtype=complex),
                                            1.0, 0.5, 0.0)
        assert not ok
        assert any(np.allclose(k, 0.0) for k in uncovered)

    def test_large_threshold_fails_covering(self, act12):
        f = random_hermitian(act12, 81)
        ok, _ = condition_iii_check(act12, f, 1.0, 0.5, 10 * np.abs(f).sum())
        assert not ok

    def test_full_support_with_brute_covering_radius(self, mod12):
        act = ActiveModeSet(mod12, 2)
        f = np.ones(len(act), dtype=complex)
        from quasiflow.symmetry import module_points_in_ball

        _, ball = module_points_in_ball(mod12, 1.2)
        cover = max(
            np.min(np.linalg.norm(act.wavevectors - k, axis=1)) for k in ball
        )
        ok, _ = condition_iii_check(act, f, 1.2, cover + 1e-9, 0.5)
        assert ok

    def test_pure_ring_leaves_interior_uncovered(self, act12):
        f = mode(act12, [1, 0, 0, 0], 1.0)
        ok, uncovered = condition_iii_check(act12, act12.symmetrize(f), 1.05, 0.3, 1e-6)
        assert not ok and len(uncovered) == 27


class TestSeparation:
    # the half-range of a field over a torus sample grid

    def test_constant_field(self, act12):
        f = mode(act12, [0, 0, 0, 0], 0.7)
        lo, hi = minmax(act12, f, 8)
        assert hi - lo == 0.0

    def test_cosine_half_range(self, mod4):
        act = ActiveModeSet(mod4, 1)
        f = mode(act, [1, 0], 1.0)
        lo, hi = minmax(act, f, 64)
        assert np.isclose(0.5 * (hi - lo), 2.0, atol=1e-9)

    def test_monotone_under_refinement(self, act12):
        # the 8-point grid is a subset of the 16-point one
        f = random_hermitian(act12, 91)
        lo8, hi8 = minmax(act12, f, 8)
        lo16, hi16 = minmax(act12, f, 16)
        assert lo16 <= lo8 + 1e-12 and hi16 >= hi8 - 1e-12


class TestRenderImage:
    def test_constant_maps_to_midgray(self, mod4):
        act = ActiveModeSet(mod4, 1)
        f = mode(act, [0, 0], 0.3)
        img = render_image(act, f, (0.0, 5.0), 16)
        assert img.shape == (16, 16) and img.dtype == np.uint8
        assert np.all(img == 128)

    def test_stripes_along_first_generator(self, mod4):
        act = ActiveModeSet(mod4, 1)
        f = mode(act, [1, 0], 1.0)
        img = render_image(act, f, (0.0, 4.0 * np.pi), 64)
        # u = 2cos(x): constant down each column, full range across
        assert np.all(img == img[0:1, :])
        assert img.min() == 0 and img.max() == 255

    def test_spatial_pattern_rejected(self, vertex_act=None):
        mod = generate_frequency_module(build_holohedry("icosahedral"))
        act = ActiveModeSet(mod, 1)
        with pytest.raises(DimensionUnsupported):
            render_image(act, np.zeros(len(act), dtype=complex), (0.0, 1.0), 8)

    def test_bad_window(self, mod4):
        act = ActiveModeSet(mod4, 1)
        with pytest.raises(ValueError):
            render_image(act, np.zeros(len(act), dtype=complex), (1.0, 1.0), 8)

    @pytest.mark.parametrize("window", [(0.0, 1e308), (-1e308, 1e308), (0.0, np.inf)])
    def test_window_beyond_the_phases_refused(self, act12, window):
        # the phases (or the window's width) overflow: one ValueError, no warning
        f = act12.symmetrize(random_hermitian(act12, 56))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite field value"):
                render_image(act12, f, window, 8)

    def test_window_beyond_the_phase_resolution_refused(self, mod12):
        # finite phases whose float spacing is radians wide (1e17, 1e300) give
        # noise, not a raster.  The largest phase is 3.7 hi: a spacing of
        # 1.9e-6 rad past 2^33 is refused, 9.5e-7 rad at 2^32 is not
        act = ActiveModeSet(mod12, 2)
        f = act.symmetrize(random_hermitian(act, 56))
        reach = float(np.abs(act.wavevectors).max())
        for hi in (1e17, 1e300, 1.5 * 2.0 ** 33 / reach):
            with pytest.raises(ValueError, match="float64 spacing"):
                render_image(act, f, (0.0, hi), 8)
        for window in [(-20.0, 20.0), (0.0, 1e6), (0.0, 2.0 ** 32 / reach)]:
            assert render_image(act, f, window, 8).shape == (8, 8)

    def test_oversized_raster_refused(self, act12, monkeypatch):
        # 16 bytes per complex entry of the (8, 8) product and the (8, modes)
        # plane waves: the larger of them sets the size
        f = np.zeros(len(act12), dtype=complex)
        need = 16 * 8 * max(8, len(act12))
        monkeypatch.setattr(hull, "MAX_GRID_BYTES", need - 1)
        with pytest.raises(hull.TooLarge, match="raster"):
            render_image(act12, f, (0.0, 1.0), 8)
        monkeypatch.setattr(hull, "MAX_GRID_BYTES", need)
        assert np.all(render_image(act12, f, (0.0, 1.0), 8) == 128)


class TestValueSemantics:
    def test_a_field_is_a_view_of_one_row(self):
        # the boundary pair only: its operations are ActiveModeSet's row operations
        assert [f.name for f in fields(HullField)] == ["active", "coeffs"]
        assert {name for name in vars(HullField) if not name.startswith("_")} == set()
        ops = ("add", "sub", "mul", "truediv", "matmul", "neg", "pos", "abs", "pow")
        assert not any(hasattr(HullField, f"__{pre}{op}__")
                       for op in ops for pre in ("", "r", "i"))

    def test_operations_return_new_arrays(self, act12):
        f = random_hermitian(act12, 95)
        before = f.copy()
        _ = act12.symmetrize(f)
        _ = act12.hermitian(f)
        _ = cube(act12, f)
        assert np.array_equal(f, before)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_hermitian_fields_have_real_values(mod4, seed):
    act = ActiveModeSet(mod4, 2)
    u = random_hermitian(act, seed)
    pts = np.random.default_rng(seed).normal(size=(10, 2))
    vals = act.evaluate_physical(u, pts)
    assert np.all(np.isfinite(vals))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_symmetrize_is_contraction_in_every_norm(mod4, seed):
    act = ActiveModeSet(mod4, 2)
    u = random_hermitian(act, seed)
    s = act.symmetrize(u)
    assert np.linalg.norm(s) <= np.linalg.norm(u) + 1e-12
    assert np.abs(s).sum() <= np.abs(u).sum() + 1e-12
    assert recorded(act, s, 3.0).hs <= recorded(act, u, 3.0).hs + 1e-12


# one BLAS thread, as the benchmark runs: a thread pool's stacks would count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

RECORDED_STEPS = """\
import resource
from quasiflow import sh
from quasiflow.hull import ActiveModeSet
from quasiflow.symmetry import build_holohedry, generate_frequency_module
act = ActiveModeSet(generate_frequency_module(build_holohedry("dihedral:12")), 3)
state = sh.step(sh.make_state(sh.quasicrystal_ic(act, 0.2, 0.5), 0.2, dt=0.125))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_, traj = sh.integrate(state, 30 * 0.125, diag_every=1)
print(len(traj.records), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

VERTEX_BUILD = """\
import re
from quasiflow.hull import ActiveModeSet
from quasiflow.symmetry import build_holohedry, generate_frequency_module
from quasiflow.verification import VERTEX_K0
def hwm_kib():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", f.read()).group(1))
module = generate_frequency_module(build_holohedry("icosahedral"), VERTEX_K0)
before = hwm_kib()
ActiveModeSet(module, 3)
print(hwm_kib() - before)
"""


def run_fresh(code):
    """The last line a fresh interpreter prints running ``code``, as integers."""
    src = str(Path(hull.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **{v: "1" for v in THREAD_VARS}}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [int(x) for x in proc.stdout.split()]


@pytest.mark.skipif(sys.platform != "linux", reason="glibc malloc and /proc/self/status")
class TestAllocation:
    def test_recorded_steps_do_not_fault(self):
        # the grid temporaries come from the heap whatever ran before them:
        # 12 faults per step when only a record's free set glibc's mmap
        # threshold, 150-200 when nothing did
        records, faults = run_fresh(RECORDED_STEPS)
        assert records == 31
        assert faults / 30 < 5

    def test_vertex_build_memory(self):
        # 117649 modes of 120 images each: 144 MB with a full int64 image table
        assert run_fresh(VERTEX_BUILD)[0] < 60 * 1024

"""Group construction, frequency modules, and integer representations."""

import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasiflow import symmetry
from quasiflow.symmetry import (
    CLOSURE_TOL,
    GOLDEN,
    ORBIT_SEPARATION_TOL,
    RANK_TOL,
    RELATION_BOUND,
    RELATION_TOL,
    FrequencyModule,
    Holohedry,
    OddOrderNoMinusI,
    RelationSearchExhausted,
    TooLarge,
    UnknownSpec,
    build_holohedry,
    default_k0,
    generate_frequency_module,
    integer_box,
    module_points_in_ball,
)


class TestBuildHolohedry:
    @pytest.mark.parametrize("q", [2, 4, 6, 8, 10, 12])
    def test_cyclic_order(self, q):
        assert len(build_holohedry(f"cyclic:{q}").matrices) == q

    @pytest.mark.parametrize("q", [2, 4, 6, 8, 10, 12])
    def test_dihedral_order(self, q):
        assert len(build_holohedry(f"dihedral:{q}").matrices) == 2 * q

    def test_icosahedral_order(self):
        H = build_holohedry("icosahedral")
        assert len(H.matrices) == 120
        dets = sorted(round(d) for d in np.linalg.det(H.matrices))
        assert dets.count(1) == 60 and dets.count(-1) == 60

    def test_identity_first(self):
        for spec in ["cyclic:4", "dihedral:12", "icosahedral"]:
            H = build_holohedry(spec)
            assert np.allclose(H.matrices[0], np.eye(H.dimension))

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:12", "dihedral:8", "icosahedral"])
    def test_contains_minus_identity(self, spec):
        H = build_holohedry(spec)
        i = H.index_of(-np.eye(H.dimension))
        assert np.allclose(H.matrices[i], -np.eye(H.dimension))

    @pytest.mark.parametrize("spec", ["dihedral:12", "icosahedral"])
    def test_elements_orthogonal(self, spec):
        for g in build_holohedry(spec).matrices:
            assert np.allclose(g @ g.T, np.eye(g.shape[0]), atol=1e-12)

    @pytest.mark.parametrize("spec", ["dihedral:12", "icosahedral"])
    def test_closed_under_products(self, spec):
        H = build_holohedry(spec)
        mats = H.matrices
        for a in range(len(mats)):
            for b in range(len(mats)):
                k = H.product_index(a, b)
                assert np.allclose(mats[a] @ mats[b], mats[k], atol=1e-10)

    @pytest.mark.parametrize("spec", ["cyclic:3", "cyclic:5", "dihedral:7"])
    def test_odd_order_rejected(self, spec):
        # odd rotation count cannot contain the central inversion
        with pytest.raises(OddOrderNoMinusI):
            build_holohedry(spec)

    @pytest.mark.parametrize(
        "spec", ["tetrahedral", "dihedral:0", "cyclic:-2", "dihedral:x", "", "octahedral:2"]
    )
    def test_unknown_spec_rejected(self, spec):
        with pytest.raises((UnknownSpec, OddOrderNoMinusI)):
            build_holohedry(spec)

    def test_group_without_minus_identity_refused(self):
        # ActiveModeSet pairs each mode with its negative through -I
        rotations = [[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
                     for t in 2 * np.pi * np.arange(3) / 3]
        with pytest.raises(ValueError, match="-I"):
            Holohedry("cyclic:3", rotations)

    @pytest.mark.parametrize("spec", ["dihedral:100000", f"cyclic:{10 ** 9}", "dihedral:1450"])
    def test_huge_order_refused_before_any_matrix(self, spec):
        # cyclic:10**9 would build 10^9 matrices before the pairwise check
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="pairwise"):
            build_holohedry(spec)
        assert time.perf_counter() - start < 1.0

    def test_order_budget_boundary(self, monkeypatch):
        # dihedral:4 has order 8: its (8, 8, 2, 2) float64 comparison is 2048 bytes
        build = build_holohedry.__wrapped__  # past the cache
        monkeypatch.setattr(symmetry, "MAX_GRID_BYTES", 2048)
        assert build("dihedral:4").order == 8
        monkeypatch.setattr(symmetry, "MAX_GRID_BYTES", 2047)
        with pytest.raises(TooLarge, match="order 8"):
            build("dihedral:4")

    def test_pairwise_comparison_peaks_near_one_array(self):
        # the guard budgets one (order, order, 2, 2) float64 array; the
        # comparison adds only its (order, order) maximum and mask
        order = 800
        one_array = order * order * 4 * 8
        tracemalloc.start()
        try:
            assert build_holohedry.__wrapped__("dihedral:400").order == order
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * one_array

    def test_construction_is_cached(self):
        assert build_holohedry("dihedral:12") is build_holohedry("dihedral:12")


class TestDefaultSeed:
    def test_planar(self):
        assert np.allclose(default_k0(2), [1.0, 0.0])

    def test_spatial(self):
        k0 = default_k0(3)
        assert np.isclose(np.linalg.norm(k0), 1.0)
        assert np.allclose(k0, [1.0, 0.0, 0.0])


class TestIntegerBox:
    def test_shape_and_order(self):
        box = integer_box(2, 1)
        assert box.shape == (9, 2)
        assert [tuple(m) for m in box] == sorted(tuple(m) for m in box)

    def test_closed_under_negation(self):
        box = {tuple(m) for m in integer_box(3, 2)}
        assert all(tuple(-np.array(m)) in box for m in box)


@pytest.fixture(scope="module")
def mod():
    return generate_frequency_module(build_holohedry("dihedral:12"))


# every module a built-in spec gives, by name: the even planar orders up to
# 30 except the rank-10 ones (22, 26 and 28), which are refused, and the
# icosahedral group seeded on its two-fold and on its five-fold axis
PLANAR_ORDERS = [q for q in range(2, 31, 2) if q not in (22, 26, 28)]
BUILT = [f"{family}:{q}" for family in ("cyclic", "dihedral") for q in PLANAR_ORDERS]
BUILT += ["icosahedral", "icosahedral-vertex"]


@functools.lru_cache(maxsize=None)
def built_module(name):
    if name == "icosahedral-vertex":
        k0 = np.array([0.0, 1.0, GOLDEN])
        return generate_frequency_module(build_holohedry("icosahedral"),
                                         k0=k0 / np.linalg.norm(k0))
    return generate_frequency_module(build_holohedry(name))


@pytest.fixture(scope="module")
def vertex_mod():
    return built_module("icosahedral-vertex")


class TestTwelvefoldModule:

    def test_rank_four(self, mod):
        assert mod.rank == 4
        assert mod.generators.shape == (4, 2)

    def test_generator_angles(self, mod):
        angles = np.degrees(np.arctan2(mod.generators[:, 1], mod.generators[:, 0]))
        assert np.allclose(angles, [0.0, 30.0, 60.0, 90.0], atol=1e-9)

    def test_rotation_by_30_integer_matrix(self, mod):
        # companion matrix of x^4 - x^2 + 1, the minimal polynomial of e^{i pi/6}
        H = mod.holohedry
        rot30 = next(
            i for i, g in enumerate(H.matrices)
            if np.allclose(g, [[np.cos(np.pi / 6), -np.sin(np.pi / 6)],
                               [np.sin(np.pi / 6), np.cos(np.pi / 6)]])
        )
        expected = np.array([
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 0],
        ])
        assert np.array_equal(mod.integer_reps[rot30], expected)

    def test_not_uniformly_discrete(self, mod):
        assert mod.uniformly_discrete is False

    def test_orbit_size(self, mod):
        assert len(mod.orbit) == 12

    def test_integer_rep_determinants(self, mod):
        for rep in mod.integer_reps:
            assert round(abs(np.linalg.det(rep))) == 1

    def test_wavevector_equivariance(self, mod):
        rng = np.random.default_rng(3)
        ms = rng.integers(-5, 6, size=(40, 4))
        for g, mat in enumerate(mod.holohedry.matrices):
            lhs = (ms @ mod.integer_reps[g].T) @ mod.generators
            rhs = (ms @ mod.generators) @ mat.T
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_integer_coordinates_roundtrip(self, mod):
        # distinct bounded indices have distinct wavevectors, so each
        # wavevector of the box names its index uniquely
        ks = integer_box(4, 2) @ mod.generators
        gaps = np.linalg.norm(ks[:, None, :] - ks[None, :, :], axis=-1)
        assert np.min(gaps[~np.eye(len(ks), dtype=bool)]) > RELATION_TOL

    def test_non_unit_seed_rejected(self):
        H = build_holohedry("dihedral:12")
        with pytest.raises(ValueError):
            generate_frequency_module(H, k0=np.array([2.0, 0.0]))


class TestRepresentationHomomorphism:
    @pytest.mark.parametrize("spec", BUILT)
    def test_exact_over_whole_group(self, spec):
        mod = built_module(spec)
        H = mod.holohedry
        reps = mod.integer_reps
        n = len(H.matrices)
        for a in range(n):
            for b in range(n):
                k = H.product_index(a, b)
                assert np.array_equal(reps[a] @ reps[b], reps[k])

    def test_identity_maps_to_identity(self):
        mod = generate_frequency_module(build_holohedry("dihedral:12"))
        assert np.array_equal(mod.integer_reps[0], np.eye(4, dtype=np.int64))

    def test_minus_identity_maps_to_negation(self):
        mod = generate_frequency_module(build_holohedry("dihedral:12"))
        i = mod.holohedry.index_of(-np.eye(2))
        assert np.array_equal(mod.integer_reps[i], -np.eye(4, dtype=np.int64))

    def test_lookup_by_element_or_matrix(self):
        mod = generate_frequency_module(build_holohedry("dihedral:4"))
        mat = mod.holohedry.matrices[1]
        assert mod.holohedry.index_of(mat) == 1

    def test_lookup_tolerance_is_closure_tol(self):
        # one tolerance: a matrix within CLOSURE_TOL entrywise is the
        # element, one ten times that away is not
        H = build_holohedry("dihedral:12")
        mat = H.matrices[5]
        assert H.index_of(mat + 0.5 * CLOSURE_TOL) == 5
        with pytest.raises(KeyError):
            H.index_of(mat + 10 * CLOSURE_TOL)


class TestEveryBuiltModule:
    @pytest.mark.parametrize("name", BUILT)
    def test_equivariance(self, name):
        # column j of integer_reps[g] holds the coordinates of g A[j]
        mod = built_module(name)
        moved = mod.generators.T @ mod.integer_reps
        assert np.max(np.abs(moved - mod.holohedry.matrices @ mod.generators.T)) < 1e-9

    @pytest.mark.parametrize("name", BUILT)
    def test_box_coordinates_are_unique(self, name):
        # distinct indices of the coefficient-bounded box have wavevectors
        # more than RELATION_TOL apart.  Sorted by their projection on a unit
        # direction, two wavevectors that close are at most `shift` places
        # apart, for the first shift with every projection gap above it
        mod = built_module(name)
        ks = integer_box(mod.rank, RELATION_BOUND) @ mod.generators
        u = np.random.default_rng(0).normal(size=mod.dimension)
        proj = ks @ (u / np.linalg.norm(u))
        order = np.argsort(proj)
        ks, proj = ks[order], proj[order]
        shift = 1
        while shift < len(ks) and np.any(proj[shift:] - proj[:-shift] <= RELATION_TOL):
            assert np.min(np.linalg.norm(ks[shift:] - ks[:-shift], axis=1)) > RELATION_TOL
            shift += 1

    @pytest.mark.parametrize("name", BUILT)
    def test_discrete_exactly_when_generators_independent(self, name):
        # p > d generators are never independent, so their rank goes unasked
        mod = built_module(name)
        independent = mod.rank == np.linalg.matrix_rank(mod.generators, tol=RANK_TOL)
        assert mod.uniformly_discrete is bool(independent)

    def test_rank_ten_refused(self):
        with pytest.raises(RelationSearchExhausted, match="relation search"):
            generate_frequency_module(build_holohedry("dihedral:22"))

    def test_bounded_relation_refused(self):
        # k0 along (9, sqrt 3) is a point of the hexagonal lattice, so its
        # orbit spans a rank-2 lattice.  Expressing it needs coefficients
        # above RELATION_BOUND, so the walk keeps a third and a fourth
        # generator, and twice the fourth is a bounded combination of the
        # first three
        k0 = np.array([9.0, np.sqrt(3.0)])
        with pytest.raises(RelationSearchExhausted, match="bounded integer relation"):
            generate_frequency_module(build_holohedry("dihedral:6"),
                                      k0=k0 / np.linalg.norm(k0))

    # lattice directions whose orbits need coefficients above RELATION_BOUND:
    # built, their representations broke the group law (88 of 144 products
    # for dihedral:6 along (5, sqrt 3), 376 and 496 of 576 for dihedral:12)
    @pytest.mark.parametrize("spec,direction", [
        ("dihedral:6", (5.0, np.sqrt(3.0))),
        ("dihedral:12", (2.0, np.sqrt(3.0))),
        ("dihedral:12", (5.0, np.sqrt(3.0))),
    ])
    def test_ambiguous_coordinates_refused(self, spec, direction):
        # an orbit point on two box points has no unique coordinates
        k0 = np.array(direction)
        with pytest.raises(RelationSearchExhausted, match="not unique"):
            generate_frequency_module(build_holohedry(spec), k0=k0 / np.linalg.norm(k0))


class TestCrystallographicRestriction:
    # rotation orders 2, 4, 6 act on genuine planar lattices; 8, 10, 12 force
    # rank four and a dense wavevector set
    @pytest.mark.parametrize("q,rank,discrete", [
        (2, 1, True),
        (4, 2, True),
        (6, 2, True),
        (8, 4, False),
        (10, 4, False),
        (12, 4, False),
    ])
    def test_planar_witnesses(self, q, rank, discrete):
        mod = generate_frequency_module(build_holohedry(f"dihedral:{q}"))
        assert mod.rank == rank
        assert mod.uniformly_discrete is discrete

    def test_icosahedral_witness(self):
        mod = generate_frequency_module(build_holohedry("icosahedral"))
        assert mod.rank == 6
        assert mod.uniformly_discrete is False


class TestIcosahedralModule:
    def test_fivefold_axis_orbit_is_the_twelve_vertices(self, vertex_mod):
        assert vertex_mod.rank == 6
        assert len(vertex_mod.orbit) == 12

    def test_vertex_reps_are_signed_permutations(self, vertex_mod):
        for rep in vertex_mod.integer_reps:
            assert np.all(np.sum(np.abs(rep), axis=0) == 1)
            assert np.all(np.sum(np.abs(rep), axis=1) == 1)

    def test_default_twofold_axis_seed(self):
        mod = generate_frequency_module(build_holohedry("icosahedral"))
        assert np.allclose(mod.k0, [1.0, 0.0, 0.0])
        assert mod.rank == 6
        assert len(mod.orbit) == 30
        assert max(int(np.max(np.abs(r))) for r in mod.integer_reps) == 1

    def test_generic_seed_exhausts_relation_search(self):
        H = build_holohedry("icosahedral")
        v = np.array([0.3, 0.5, 0.7])
        v /= np.linalg.norm(v)
        with pytest.raises(RelationSearchExhausted):
            generate_frequency_module(H, k0=v)


class TestModulePointsInBall:
    def test_square_lattice_nine_points(self):
        mod = generate_frequency_module(build_holohedry("dihedral:4"))
        ms, ks = module_points_in_ball(mod, 1.5)
        assert len(ms) == 9
        lengths = np.linalg.norm(ks, axis=1)
        assert np.all(np.diff(np.round(lengths, 9)) >= 0)
        assert np.allclose(sorted(lengths), [0, 1, 1, 1, 1] + [np.sqrt(2)] * 4)

    def test_twelvefold_short_vector(self):
        # shortest nonzero combination has length 2 - sqrt(3)
        mod = generate_frequency_module(build_holohedry("dihedral:12"))
        ms, ks = module_points_in_ball(mod, 0.05)
        assert len(ms) == 1 and not np.any(ms[0])
        ms2, ks2 = module_points_in_ball(mod, 0.27)
        lengths = np.linalg.norm(ks2, axis=1)
        nonzero = lengths[lengths > 1e-12]
        assert np.allclose(nonzero.min(), 2.0 - np.sqrt(3.0))

    def test_ball_includes_generator_ring(self):
        mod = generate_frequency_module(build_holohedry("dihedral:12"))
        ms, ks = module_points_in_ball(mod, 1.0)
        lengths = np.linalg.norm(ks, axis=1)
        assert int(np.sum(np.isclose(lengths, 1.0))) == 12


@settings(max_examples=15, deadline=None)
@given(st.floats(0.0, 2 * np.pi, allow_nan=False))
@example(1e-9)
@example(1e-10)
def test_rotated_seed_module_contract(theta):
    # the orbit pairs each rotation image with a reflection image; the gap
    # between the two is 2 sin(delta), delta the angle to the nearest mirror
    # axis (multiples of 15 degrees).  Within RELATION_TOL they are one point:
    # a 12-vector orbit of rank 4.  Closer than ORBIT_SEPARATION_TOL the seed
    # is refused; beyond that the stabilizer is trivial, the orbit has 24
    # vectors, and the two rank-4 families are independent
    H = build_holohedry("dihedral:12")
    k0 = np.array([np.cos(theta), np.sin(theta)])
    images = np.array([g @ k0 for g in H.matrices])
    gaps = np.linalg.norm(images[:, None] - images[None, :], axis=-1)
    gap = np.min(gaps[gaps >= RELATION_TOL], initial=np.inf)
    if gap < ORBIT_SEPARATION_TOL:
        with pytest.raises(ValueError, match="orbit points"):
            generate_frequency_module(H, k0=k0)
        return
    mod = generate_frequency_module(H, k0=k0)
    if np.all((gaps < RELATION_TOL) | (gaps > 0.5)):
        assert (mod.rank, len(mod.orbit)) == (4, 12)
    else:
        assert (mod.rank, len(mod.orbit)) == (8, 24)
    assert mod.uniformly_discrete is False
    # representation property survives the rotation
    a, b = 5, 17
    k = H.product_index(a, b)
    assert np.array_equal(mod.integer_reps[a] @ mod.integer_reps[b], mod.integer_reps[k])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6).map(lambda n: 2 * n))
def test_even_dihedral_always_buildable(q):
    H = build_holohedry(f"dihedral:{q}")
    assert len(H.matrices) == 2 * q
    mod = generate_frequency_module(H)
    assert mod.rank >= 1
    for rep in mod.integer_reps:
        assert round(abs(np.linalg.det(rep))) == 1

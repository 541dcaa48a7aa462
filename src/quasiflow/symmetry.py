"""Finite orthogonal symmetry groups and their frequency modules.

The built-in families are the even cyclic and dihedral groups acting on the
plane and the full icosahedral group (inversion included) acting on space.
A frequency module is the set of integer combinations of the group orbit of
a unit wavevector k0.  Its generators coordinatize the torus T^p that hull
functions live on, and every group element acts on integer mode indices
through an exact integer matrix, so symmetry operations on truncated fields
are exact instead of approximate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

ORTHOGONALITY_TOL = 1e-12
CLOSURE_TOL = 1e-10
RELATION_TOL = 1e-9
RANK_TOL = 1e-9
# Distinct orbit points must be this far apart.  Closer points come from a
# seed just off a mirror axis, where the bounded relation search at
# RELATION_TOL cannot tell near-coincident generators apart.
ORBIT_SEPARATION_TOL = 1e-7

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class UnknownSpec(ValueError):
    """Symmetry descriptor does not name a built-in family."""


class OddOrderNoMinusI(ValueError):
    """Requested cyclic/dihedral order is odd, so -I would be missing."""


class RelationSearchExhausted(RuntimeError):
    """Some orbit vector has no integer expression with bounded coefficients.

    Retrying with a larger relation bound usually fixes this.
    """


def _key(mat: np.ndarray) -> bytes:
    # +0.0 collapses -0.0 to +0.0 so byte keys are stable
    return (np.round(mat, 8) + 0.0).tobytes()


@dataclass(eq=False)
class GroupElement:
    """One orthogonal matrix of a holohedry, with a short text label."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        d = self.matrix.shape[0]
        if self.matrix.shape != (d, d):
            raise ValueError("group element matrix must be square")
        err = np.max(np.abs(self.matrix.T @ self.matrix - np.eye(d)))
        if err > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal (residual {err:.2e})")
        if abs(abs(np.linalg.det(self.matrix)) - 1.0) > ORTHOGONALITY_TOL:
            raise ValueError("matrix determinant must be +-1")

    def __repr__(self):
        return f"GroupElement({self.label!r})"


class Holohedry:
    """A finite orthogonal group containing I and -I.

    Immutable after construction.  Element order is deterministic, with the
    identity always first; ``index_of`` matches matrices to elements with a
    1e-10 tolerance.
    """

    def __init__(self, name: str, dimension: int, elements: list[GroupElement]):
        self.name = name
        self.dimension = dimension
        self.elements = tuple(elements)
        self._index = {}
        for i, g in enumerate(self.elements):
            k = _key(g.matrix)
            if k in self._index:
                raise ValueError("duplicate group element")
            self._index[k] = i
        eye = np.eye(dimension)
        if self.index_of(eye) != 0:
            raise ValueError("identity must be the first element")
        self.minus_identity_index = self.index_of(-eye)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, matrix: np.ndarray) -> int:
        """Index of the element equal to ``matrix`` (within 1e-10)."""
        k = _key(np.asarray(matrix, dtype=float))
        i = self._index.get(k)
        if i is not None:
            return i
        # fall back to a tolerant scan in case rounding straddled a boundary
        for j, g in enumerate(self.elements):
            if np.max(np.abs(g.matrix - matrix)) < CLOSURE_TOL:
                return j
        raise KeyError("matrix is not an element of this holohedry")

    def product_index(self, i: int, j: int) -> int:
        return self.index_of(self.elements[i].matrix @ self.elements[j].matrix)

    def __repr__(self):
        return f"Holohedry({self.name!r}, order={self.order})"


def _rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotation_3d(axis: np.ndarray, theta: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    c, s = np.cos(theta), np.sin(theta)
    cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(axis, axis)


def _close_under_products(generators: list[np.ndarray], max_order: int = 200):
    """Generate a finite matrix group from generators (identity included)."""
    d = generators[0].shape[0]
    elements = [np.eye(d)]
    seen = {_key(elements[0])}
    frontier = [np.eye(d)]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                prod = h @ g
                k = _key(prod)
                if k not in seen:
                    seen.add(k)
                    elements.append(prod)
                    nxt.append(prod)
                    if len(elements) > max_order:
                        raise ValueError("group generation did not terminate")
        frontier = nxt
    return elements


def _icosahedral_rotations() -> list[np.ndarray]:
    # five-fold axis through a vertex, two-fold axis through an edge midpoint
    r5 = _rotation_3d(np.array([0.0, 1.0, GOLDEN]), 2.0 * np.pi / 5.0)
    r2 = np.diag([-1.0, -1.0, 1.0])
    rotations = _close_under_products([r5, r2])
    if len(rotations) != 60:
        raise ValueError(f"icosahedral generation produced {len(rotations)} rotations")
    return rotations


@functools.lru_cache(maxsize=None)
def build_holohedry(spec: str) -> Holohedry:
    """Build a holohedry from a descriptor.

    Accepted descriptors: ``cyclic:q`` and ``dihedral:q`` with q even
    (rotations by 2*pi/q, plus q reflections for the dihedral family), and
    ``icosahedral`` (order 120).  Odd q raises OddOrderNoMinusI because the
    group would not contain -I; anything else raises UnknownSpec.
    """
    spec = spec.strip()
    if spec == "icosahedral":
        rotations = _icosahedral_rotations()
        elements = []
        for i, r in enumerate(rotations):
            elements.append(GroupElement(r, "I" if i == 0 else f"g{i}"))
        for i, r in enumerate(rotations):
            elements.append(GroupElement(-r, "-I" if i == 0 else f"-g{i}"))
        return Holohedry("icosahedral", 3, elements)

    if ":" in spec:
        family, _, tail = spec.partition(":")
        family = family.strip()
        try:
            q = int(tail)
        except ValueError:
            raise UnknownSpec(f"malformed symmetry descriptor {spec!r}") from None
        if family in ("cyclic", "dihedral"):
            if q <= 0:
                raise UnknownSpec(f"order must be positive in {spec!r}")
            if q % 2 != 0:
                raise OddOrderNoMinusI(
                    f"{spec!r} has odd order; the group would not contain -I"
                )
            elements = []
            for j in range(q):
                mat = _rotation_2d(2.0 * np.pi * j / q)
                if j == 0:
                    label = "I"
                elif 2 * j == q:
                    label = "-I"
                else:
                    label = f"r{j}"
                elements.append(GroupElement(mat, label))
            if family == "dihedral":
                flip = np.diag([1.0, -1.0])
                for j in range(q):
                    mat = _rotation_2d(2.0 * np.pi * j / q) @ flip
                    elements.append(GroupElement(mat, f"s{j}"))
            return Holohedry(spec, 2, elements)
    raise UnknownSpec(f"unknown symmetry descriptor {spec!r}")


def default_k0(dimension: int) -> np.ndarray:
    """Unit wavevector (1, 0, ...) used when no seed direction is given."""
    k0 = np.zeros(dimension)
    k0[0] = 1.0
    return k0


def integer_box(p: int, bound: int) -> np.ndarray:
    """All integer vectors with sup-norm <= bound, in lexicographic order."""
    axes = [np.arange(-bound, bound + 1)] * p
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, p).astype(np.int64)


@dataclass(eq=False)
class FrequencyModule:
    """Integer span of a holohedry orbit of a unit wavevector.

    ``generators`` has one row per torus coordinate; ``integer_reps[i]`` is
    the exact integer matrix of ``holohedry.elements[i]`` acting on mode
    indices, column j holding the coordinates of the element applied to
    generator j.  ``relation_bound`` caps the coefficients searched when a
    vector is matched against the module.
    """

    holohedry: Holohedry
    k0: np.ndarray
    generators: np.ndarray
    relation_bound: int
    integer_reps: tuple
    uniformly_discrete: bool
    orbit: np.ndarray
    _box_ms: np.ndarray = field(repr=False, default=None)
    _box_ks: np.ndarray = field(repr=False, default=None)

    @property
    def rank(self) -> int:
        return self.generators.shape[0]

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]

    def __repr__(self):
        return (
            f"FrequencyModule({self.holohedry.name!r}, rank={self.rank}, "
            f"uniformly_discrete={self.uniformly_discrete})"
        )


# exhaustive relation searches enumerate (2R+1)^p candidates; beyond this
# many the module is either not finitely generated at this bound or the
# bound is too small, and growing the box further only burns memory
MAX_SEARCH_CANDIDATES = 4_000_000


def _check_search_size(p, bound):
    if (2 * bound + 1) ** p > MAX_SEARCH_CANDIDATES:
        raise RelationSearchExhausted(
            f"integer relation search space (2*{bound}+1)^{p} is too large; "
            "the orbit may not admit a bounded-coefficient basis at this bound"
        )


def _representable(v, gens, bound, tol):
    _check_search_size(len(gens), bound)
    ms = integer_box(len(gens), bound)
    pts = ms @ np.asarray(gens)
    dist = np.linalg.norm(pts - v, axis=1)
    return np.min(dist) < tol


def generate_frequency_module(
    holohedry: Holohedry, k0: np.ndarray | None = None, relation_bound: int = 2
) -> FrequencyModule:
    """Select module generators greedily from the orbit of k0.

    Walks the orbit in group-element order and keeps every vector that is not
    an integer combination (coefficients bounded by ``relation_bound``) of the
    vectors kept so far.  Afterwards every orbit vector, and hence the action
    of every group element, must be expressible within the same bound, or
    RelationSearchExhausted is raised.
    """
    if k0 is None:
        k0 = default_k0(holohedry.dimension)
    k0 = np.asarray(k0, dtype=float)
    if k0.shape != (holohedry.dimension,):
        raise ValueError("k0 dimension does not match the holohedry")
    if abs(np.linalg.norm(k0) - 1.0) > RELATION_TOL:
        raise ValueError("k0 must be a unit vector")
    if relation_bound < 1:
        raise ValueError("relation bound must be a positive integer")

    orbit = []
    for g in holohedry.elements:
        v = g.matrix @ k0
        if not any(np.linalg.norm(v - w) < RELATION_TOL for w in orbit):
            orbit.append(v)
    orbit = np.array(orbit)
    gaps = np.linalg.norm(orbit[:, None, :] - orbit[None, :, :], axis=-1)
    closest = np.min(gaps[~np.eye(len(orbit), dtype=bool)], initial=np.inf)
    if closest < ORBIT_SEPARATION_TOL:
        raise ValueError(
            f"two orbit points of k0 are {closest:.1e} apart, closer than "
            f"{ORBIT_SEPARATION_TOL:g}: k0 lies just off a symmetry axis"
        )

    gens: list[np.ndarray] = [orbit[0]]
    for v in orbit[1:]:
        if not _representable(v, gens, relation_bound, RELATION_TOL):
            gens.append(v)
    A = np.array(gens)
    p = len(gens)

    _check_search_size(p, relation_bound)
    box_ms = integer_box(p, relation_bound)
    box_ks = box_ms @ A

    # generators must be independent over the integers within the bound
    dist = np.linalg.norm(box_ks, axis=1)
    nonzero = np.any(box_ms != 0, axis=1)
    if np.any(dist[nonzero] < RELATION_TOL):
        raise RelationSearchExhausted(
            "chosen generators satisfy a bounded integer relation"
        )

    def coords(v):
        d = np.linalg.norm(box_ks - v, axis=1)
        i = int(np.argmin(d))
        if d[i] >= RELATION_TOL:
            raise RelationSearchExhausted(
                "orbit vector has no bounded integer expression; "
                "retry with a larger relation_bound"
            )
        return box_ms[i]

    reps = []
    for g in holohedry.elements:
        cols = [coords(g.matrix @ A[j]) for j in range(p)]
        reps.append(np.array(cols, dtype=np.int64).T)

    rank_real = np.linalg.matrix_rank(A, tol=RANK_TOL)
    return FrequencyModule(
        holohedry=holohedry,
        k0=k0,
        generators=A,
        relation_bound=relation_bound,
        integer_reps=tuple(reps),
        uniformly_discrete=bool(p == rank_real),
        orbit=orbit,
        _box_ms=box_ms,
        _box_ks=box_ks,
    )


def mode_wavevector(module: FrequencyModule, m) -> np.ndarray:
    """Wavevector of an integer mode index (rows for batched input)."""
    return np.asarray(m, dtype=np.int64) @ module.generators


def module_points_in_ball(
    module: FrequencyModule, radius: float, coeff_bound: int | None = None
):
    """Module points |k(m)| <= radius with |m|_inf <= coeff_bound.

    Returns (indices, wavevectors) sorted by |k| then lexicographic index, so
    the enumeration is deterministic.  The enumeration is complete only up to
    the coefficient bound (module.relation_bound by default).
    """
    if coeff_bound is None:
        coeff_bound = module.relation_bound
    if coeff_bound == module.relation_bound:
        ms, ks = module._box_ms, module._box_ks
    else:
        ms = integer_box(module.rank, coeff_bound)
        ks = ms @ module.generators
    lens = np.linalg.norm(ks, axis=1)
    keep = lens <= radius + 1e-12
    ms, ks, lens = ms[keep], ks[keep], lens[keep]
    order = np.lexsort(
        tuple(ms[:, j] for j in reversed(range(module.rank)))
        + (np.round(lens, 12),)
    )
    return ms[order], ks[order]

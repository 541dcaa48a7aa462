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
from dataclasses import dataclass

import numpy as np

ORTHOGONALITY_TOL = 1e-12
CLOSURE_TOL = 1e-10
RELATION_TOL = 1e-9
RANK_TOL = 1e-9
# Distinct orbit points must be this far apart.  Closer points come from a
# seed just off a mirror axis, where the bounded relation search at
# RELATION_TOL cannot tell near-coincident generators apart.
ORBIT_SEPARATION_TOL = 1e-7
# coefficient bound of the integer relation search, and so of the box the
# covering check enumerates
RELATION_BOUND = 2
# 256 MiB per array: a float64 grid per component (icosahedral N=3, 13^6
# points, 37 MiB, fits; rank 8 at N=2, 9^8 points, 328 MiB, does not), or a
# holohedry's pairwise comparison of its elements (dihedral:1448 fits)
MAX_GRID_BYTES = 2 ** 28

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class UnknownSpec(ValueError):
    """Symmetry descriptor does not name a built-in family."""


class OddOrderNoMinusI(ValueError):
    """Requested cyclic/dihedral order is odd, so -I would be missing."""


class TooLarge(ValueError):
    """A grid, group or brute-force path refused as too big to allocate or run."""


class RelationSearchExhausted(RuntimeError):
    """The orbit has no basis of bounded integer coefficients within the search."""


class Holohedry:
    """A finite orthogonal group containing I and -I, as one matrix stack.

    Immutable after construction.  ``matrices`` is a read-only
    ``(order, d, d)`` array in a deterministic order with the identity
    first, and an element is named by its index there.  Matrices are
    compared at one tolerance: ``index_of`` finds the element whose entries
    all agree with the given matrix within CLOSURE_TOL.
    """

    def __init__(self, name: str, matrices):
        mats = np.array(matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("group elements must be a stack of square matrices")
        eye = np.eye(mats.shape[1])
        err = np.max(np.abs(np.swapaxes(mats, 1, 2) @ mats - eye))
        if err > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal (residual {err:.2e})")
        if np.max(np.abs(np.abs(np.linalg.det(mats)) - 1.0)) > ORTHOGONALITY_TOL:
            raise ValueError("matrix determinant must be +-1")
        if np.any(_first_match(mats, mats) != np.arange(len(mats))):
            raise ValueError("duplicate group element")
        ident, minus = _first_match(np.stack([eye, -eye]), mats)
        if ident != 0:
            raise ValueError("identity must be the first element")
        if minus < 0:
            raise ValueError("group must contain -I")
        mats.setflags(write=False)
        self.name = name
        self.matrices = mats

    @property
    def order(self) -> int:
        return len(self.matrices)

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

    def index_of(self, matrix: np.ndarray) -> int:
        """Index of the element equal to ``matrix`` within CLOSURE_TOL."""
        i = int(_first_match(np.asarray(matrix, dtype=float)[None], self.matrices)[0])
        if i < 0:
            raise KeyError("matrix is not an element of this holohedry")
        return i

    def product_index(self, i: int, j: int) -> int:
        return self.index_of(self.matrices[i] @ self.matrices[j])

    def __repr__(self):
        return f"Holohedry({self.name!r}, order={self.order})"


def _first_match(mats: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per matrix of ``mats``, the first element of ``stack`` within
    CLOSURE_TOL entrywise, or -1."""
    diff = mats[:, None] - stack[None]
    # in place: one (len(mats), len(stack), d, d) array, the one the order guard budgets
    close = np.max(np.abs(diff, out=diff), axis=(-2, -1)) < CLOSURE_TOL
    return np.where(close.any(axis=1), np.argmax(close, axis=1), -1)


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


def _close_under_products(generators: list[np.ndarray]):
    """Generate a finite matrix group from generators (identity included).

    Breadth first: each level multiplies the new elements by every generator
    on the left and keeps the products not seen before, in order.
    """
    gens = np.array(generators)
    d = gens.shape[-1]
    group = frontier = np.eye(d)[None]
    while len(frontier):
        cand = np.matmul(gens[None], frontier[:, None]).reshape(-1, d, d)
        pool = np.concatenate([group, cand])
        frontier = cand[_first_match(cand, pool) == len(group) + np.arange(len(cand))]
        group = np.concatenate([group, frontier])
        if len(group) > 200:  # well past the 60 icosahedral rotations
            raise ValueError("group generation did not terminate")
    return group


def _icosahedral_rotations() -> np.ndarray:
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
    group would not contain -I; an order whose pairwise comparison of
    elements would exceed MAX_GRID_BYTES raises TooLarge before any matrix
    is built; anything else raises UnknownSpec.
    """
    spec = spec.strip()
    if spec == "icosahedral":
        rotations = _icosahedral_rotations()
        return Holohedry("icosahedral", np.concatenate([rotations, -rotations]))

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
            # Holohedry compares its elements pairwise in one
            # (order, order, 2, 2) float64 array
            order = 2 * q if family == "dihedral" else q
            if order ** 2 * 32 > MAX_GRID_BYTES:
                raise TooLarge(
                    f"{spec!r} has order {order}; comparing its elements pairwise "
                    f"takes {order ** 2 * 32 / 2 ** 20:.3g} MiB, and the limit is "
                    f"{MAX_GRID_BYTES / 2 ** 20:.0f} MiB"
                )
            mats = [_rotation_2d(2.0 * np.pi * j / q) for j in range(q)]
            if family == "dihedral":
                flip = np.diag([1.0, -1.0])
                mats += [m @ flip for m in mats]
            return Holohedry(spec, mats)
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

    ``generators`` has one row per torus coordinate.  ``integer_reps`` is a
    read-only ``(order, p, p)`` int64 stack: ``integer_reps[i]`` is the exact
    integer matrix of ``holohedry.matrices[i]`` acting on mode indices,
    column j holding the coordinates of the element applied to generator j.
    """

    holohedry: Holohedry
    k0: np.ndarray
    generators: np.ndarray
    integer_reps: np.ndarray
    uniformly_discrete: bool
    orbit: np.ndarray

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


def generate_frequency_module(
    holohedry: Holohedry, k0: np.ndarray | None = None
) -> FrequencyModule:
    """Select module generators greedily from the orbit of k0, in one walk.

    The walk visits the orbit in group-element order beside the box of
    integer combinations (coefficients bounded by RELATION_BOUND) of the
    vectors kept so far.  A vector on the box (within RELATION_TOL) takes the
    coordinates of that box point, and the integer representations are read
    off those; any other is kept as the next generator.
    RelationSearchExhausted is raised when the box would exceed
    MAX_SEARCH_CANDIDATES; when a vector lies on two box points, whose
    difference is a relation with coefficients up to 2 RELATION_BOUND; or
    when a kept v has c v on the box for some c = 2..RELATION_BOUND: a
    bounded relation's last nonzero coefficient is never +-1, or its
    generator was not kept.
    """
    if k0 is None:
        k0 = default_k0(holohedry.dimension)
    k0 = np.asarray(k0, dtype=float)
    if k0.shape != (holohedry.dimension,):
        raise ValueError("k0 dimension does not match the holohedry")
    if abs(np.linalg.norm(k0) - 1.0) > RELATION_TOL:
        raise ValueError("k0 must be a unit vector")

    images = holohedry.matrices @ k0
    gaps = np.linalg.norm(images[:, None] - images[None], axis=-1)
    near = gaps < RELATION_TOL
    closest = np.min(gaps[~near], initial=np.inf)
    if closest < ORBIT_SEPARATION_TOL:
        raise ValueError(
            f"two orbit points of k0 are {closest:.1e} apart, closer than "
            f"{ORBIT_SEPARATION_TOL:g}: k0 lies just off a symmetry axis"
        )
    # every gap is now below RELATION_TOL or above ORBIT_SEPARATION_TOL, so
    # nearness is transitive: keep the first image of each class
    orbit = images[np.argmax(near, axis=1) == np.arange(len(images))]

    # column i of box is the wavevector whose coordinates are the base-(2R+1)
    # digits of i, as in integer_box; each new generator adds the last digit.
    # Row o of coords: orbit point o's coordinates, zero-padded to len(orbit)
    steps = np.arange(-RELATION_BOUND, RELATION_BOUND + 1)
    gens, coords = [], np.zeros((len(orbit), len(orbit)), dtype=np.int64)
    box = np.zeros((k0.size, 1))
    for o, v in enumerate(orbit):
        sq_dist = np.sum((box - v[:, None]) ** 2, axis=0)
        hits = np.flatnonzero(sq_dist < RELATION_TOL ** 2)
        if len(hits) > 1:
            raise RelationSearchExhausted(
                f"orbit point {o} lies on {len(hits)} box points, so its coordinates "
                f"are not unique: the generators satisfy an integer relation "
                f"with coefficients up to {2 * RELATION_BOUND}"
            )
        if len(hits):
            digits = np.unravel_index(hits[0], (len(steps),) * len(gens))
            coords[o, :len(gens)] = steps[np.array(digits)]
            continue
        coords[o, len(gens)] = 1
        gens.append(v)
        if len(steps) ** len(gens) > MAX_SEARCH_CANDIDATES:
            raise RelationSearchExhausted(
                f"integer relation search space (2*{RELATION_BOUND}+1)^{len(gens)} "
                "is too large; the orbit may not admit a bounded-coefficient basis"
            )
        for c in range(2, RELATION_BOUND + 1):
            if np.min(np.sum((box - c * v[:, None]) ** 2, axis=0)) < RELATION_TOL ** 2:
                raise RelationSearchExhausted(
                    "chosen generators satisfy a bounded integer relation"
                )
        box = (box[:, :, None] + v[:, None, None] * steps).reshape(k0.size, -1)
    A = np.array(gens)
    p = len(gens)

    # every image g A[j] is an orbit point: read each representation's
    # columns off the orbit points' coordinates
    moved = np.einsum("gab,jb->gja", holohedry.matrices, A)
    slot = np.argmin(np.linalg.norm(moved[:, :, None] - orbit, axis=-1), axis=-1)
    reps = np.swapaxes(coords[slot, :p], 1, 2).copy()
    reps.setflags(write=False)

    # p > d vectors in R^d are never independent: no rank decomposition then
    discrete = p <= k0.size and p == np.linalg.matrix_rank(A, tol=RANK_TOL)
    return FrequencyModule(
        holohedry=holohedry,
        k0=k0,
        generators=A,
        integer_reps=reps,
        uniformly_discrete=bool(discrete),
        orbit=orbit,
    )


def module_points_in_ball(module: FrequencyModule, radius: float):
    """Module points |k(m)| <= radius with |m|_inf <= RELATION_BOUND.

    Returns (indices, wavevectors) sorted by |k| then lexicographic index, so
    the enumeration is deterministic.  The enumeration is complete only up to
    the coefficient bound.
    """
    ms = integer_box(module.rank, RELATION_BOUND)
    ks = ms @ module.generators
    lens = np.linalg.norm(ks, axis=1)
    keep = lens <= radius + 1e-12
    ms, ks, lens = ms[keep], ks[keep], lens[keep]
    order = np.lexsort(
        tuple(ms[:, j] for j in reversed(range(module.rank)))
        + (np.round(lens, 12),)
    )
    return ms[order], ks[order]

"""Hull functions on the torus T^p, truncated to a symmetric set of modes.

A hull field stores complex coefficients on an "active" set of integer mode
indices: the largest subset of the box |m|_inf <= N that is mapped to itself
by every group element.  Closure under the group action makes symmetrization
exact; closure under negation lets the Hermitian constraint a_{-m} =
conj(a_m) keep field values real.

Products of fields are evaluated pseudospectrally: ``grid_values`` synthesizes
each factor on a uniform grid, the product is taken pointwise there, and
``coefficients_from_grid`` keeps its retained coefficients.  A cubic product
has modes up to 3N, which alias onto a retained mode |m| <= N only when
G <= 4N; so on any grid of G >= 4N+1 points per axis the retained
coefficients carry no aliasing error at all (Boyd, Chebyshev and Fourier
Spectral Methods, 2001, ch. 11).  The default grid,
``product_axis_points``, is the smallest of them, G = 4N+1 (5, 9, 13, 17,
21, 25 for N = 1..6).  The equations' ``nonlinear`` callbacks
(``sh.SHParams``, ``brusselator.BrusselatorParams``) are the products the
package computes; records read their extrema off the same grid, and
``brusselator.positivity_check`` samples on it by default.

Fields are real, so only the half spectrum whose last index is >= 0 is
stored: an active mode with last index >= 0 has its own slot there, and every
other mode is the conjugate of its partner -m.  The transforms are pruned
(Markel, IEEE Trans. Audio Electroacoust. 19, 1971): the coefficients fill a
box of (N+1) (2N+1)^(p-1) entries, and the inverse widens it one axis at a
time to G points, so no transform runs over columns that are all zero, and
ends on the real half axis; the forward transform narrows it the other way.
By sum factorisation (Orszag, J. Comput. Phys. 37, 1980; Deville, Fischer
& Mund, High-Order Methods for Incompressible Fluid Flow, 2002) each axis
step is one matrix product of the whole box, per component, with a
precomputed (G, 2N+1) DFT matrix, which rotates the axes by one so that the
next axis to contract takes its place.  Both act on the last p axes, so the
components of a stacked ``(ncomp, nmodes)`` state go through one call, and
both work on any G >= 2N+1, prime or not.  ``coefficients_from_grid`` gives
a constant grid's value back exactly, so a homogeneous steady state stays a
fixed point on every grid.  A grid above ``MAX_GRID_BYTES`` per component is
refused before it is allocated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .symmetry import FrequencyModule, integer_box, module_points_in_ball

HERMITIAN_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-10
EVAL_CHUNK = 4096  # physical points per block of plane waves
# 256 MiB of float64 per component grid: icosahedral N=3 (13^6, 37 MiB)
# fits; rank 8 at N=2 (9^8 points, 328 MiB) does not
MAX_GRID_BYTES = 2 ** 28
# pairwise products per stage of the brute-force convolution oracle
MAX_PAIR_SUMS = 4_000_000
# float64 entries per block of the active-set build's products: 512 KiB stays
# in cache, where 16 MiB blocks took twice as long
BUILD_BLOCK = 2 ** 16


class InactiveMode(KeyError):
    """Mode index outside the active set."""


class EmptyActiveSet(ValueError):
    """Symmetry reduction left nothing but the zero mode."""


class ImaginaryResidue(ValueError):
    """Field values came out with a non-negligible imaginary part."""


class DimensionUnsupported(ValueError):
    """Operation requires a different ambient dimension."""


class TooLarge(ValueError):
    """A grid or brute-force path refused as too big to allocate or run."""


class ActiveModeSet:
    """Largest group-invariant set of modes in the box |m|_inf <= N.

    Every index m in the box has one int64 key, the mixed-radix number with
    digits m_j + N in base 2N+1.  Numeric order of keys is lexicographic
    order of indices, and the i-th row of ``integer_box`` has key i.  An
    index is kept when every integer representation maps it back into the
    box.  Indices are stored in key order; all derived arrays (wavevectors,
    orbit ids, negation permutation) are aligned with that order.

    A table of length (2N+1)^p holds each key's position in the set, or
    len(self) for a box index that is not active; every lookup reads it.
    Since key(g m) = m . (rep_g^T radix) + N sum(radix), the keys of all
    images of all modes are one product of the (order, p) stack of
    rep_g^T radix with the indices.  Positions ascend with keys, so a
    mode's smallest image key, read through the table, is its ``orbit`` id:
    the smallest position in its orbit.  ``orbit_blocks`` holds one
    ``(orbits, size)`` block of positions per orbit size.  The keep mask
    is likewise one product of the box with every distinct representation
    row (up to sign) side by side.  Both multiply small integers in float64,
    which is exact, and run in blocks of BUILD_BLOCK entries.
    """

    def __init__(self, module: FrequencyModule, N: int):
        if N < 0 or int(N) != N:
            raise ValueError("N must be a nonnegative integer")
        self.module = module
        self.N = int(N)

        p = module.rank
        # the int64 index box is smaller than the (4N+1)^p product grid for
        # N >= 1, so this refuses no set whose products fit
        if (2 * self.N + 1) ** p * p * 8 > MAX_GRID_BYTES:
            raise TooLarge(
                f"the (2N+1)^{p} index box at N = {self.N} exceeds "
                f"{MAX_GRID_BYTES / 2 ** 20:.0f} MiB"
            )
        self._radix = (2 * self.N + 1) ** np.arange(p - 1, -1, -1, dtype=np.int64)
        box = integer_box(p, self.N)
        reps = module.integer_reps
        # the rows r of every rep, side by side as columns, so that a box row
        # m times them holds every r . m; r and -r give the same |r . m|, so
        # each row enters once up to sign, with its first nonzero entry > 0
        signed = reps.reshape(-1, p)
        lead = signed[np.arange(len(signed)), np.argmax(signed != 0, axis=1)]
        signed = signed * np.sign(lead)[:, None]
        signed = signed[np.lexsort(signed.T)]
        distinct = np.r_[True, np.any(signed[1:] != signed[:-1], axis=1)]
        side_by_side = signed[distinct].T.astype(float)
        keep = np.empty(len(box), dtype=bool)
        rows = max(1, BUILD_BLOCK // side_by_side.shape[1])
        for lo in range(0, len(box), rows):
            images = box[lo:lo + rows].astype(float) @ side_by_side
            keep[lo:lo + rows] = np.abs(images, out=images).max(axis=1) <= self.N
        # one pass suffices: integer_reps is closed under products (check 16)

        self.indices = box[keep]
        if self.N > 0 and len(self.indices) <= 1:
            raise EmptyActiveSet("symmetry reduction left only the zero mode; raise N")
        self._table = np.full(len(box), len(self.indices), dtype=np.int64)
        self._table[keep] = np.arange(len(self.indices))
        self.wavevectors = self.indices @ module.generators
        self.ksq = np.einsum("ij,ij->i", self.wavevectors, self.wavevectors)
        self.msq = np.einsum("ij,ij->i", self.indices, self.indices).astype(float)

        key_rows = (reps.transpose(0, 2, 1) @ self._radix).astype(float)
        columns = self.indices.T.astype(float)
        low = np.full(len(self), np.inf)
        rows = max(1, BUILD_BLOCK // len(self))
        for lo in range(0, len(reps), rows):
            keys = key_rows[lo:lo + rows] @ columns
            np.minimum(low, keys.min(axis=0), out=low)
        low += self.N * self._radix.sum()
        self.orbit = self._table[low.astype(np.int64)].astype(np.int32)
        # not np.unique, which imports numpy.ma on first use
        order = np.argsort(self.orbit, kind="stable")
        size = np.bincount(self.orbit)[self.orbit[order]]
        self.orbit_blocks = [order[size == s].reshape(-1, s)
                             for s in np.flatnonzero(np.bincount(size))]
        self.neg_perm = self._find(-self.indices)

        # the smallest alias-free grid for cubic products (module docstring)
        self.product_axis_points = 4 * self.N + 1
        # flattened half-spectrum box: axis 0 holds m_{p-1} >= 0, the others
        # m_j mod 2N+1.  A mode reads the slot of m or -m, whichever has
        # m_{p-1} >= 0, conjugated for -m; an empty slot reads len(self)
        width = 2 * self.N + 1
        last = self.indices[:, -1]
        half = np.where(last[:, None] < 0, -self.indices, self.indices)
        self._gather = half[:, -1]
        for j in range(p - 1):
            self._gather = self._gather * width + half[:, j] % width
        self._sign = np.where(last < 0, -1.0, 1.0)
        self._fill = np.full((self.N + 1) * width ** (p - 1), len(self))
        self._fill[self._gather[last >= 0]] = np.flatnonzero(last >= 0)
        self.zero_position = self._find(np.zeros((1, p), dtype=np.int64))[0]
        self._dft_cache: dict[int, tuple] = {}

    def _find(self, m: np.ndarray) -> np.ndarray:
        """Positions of indices known to be active."""
        return self._table[(m + self.N) @ self._radix]

    @property
    def rank(self) -> int:
        return self.indices.shape[1]

    def __len__(self):
        return len(self.indices)

    def __repr__(self):
        return f"ActiveModeSet(N={self.N}, modes={len(self)}, p={self.rank})"

    def position(self, m) -> int:
        # an index off the box, or with a fractional entry, has no key
        m = np.asarray(m)
        if m.shape == (self.rank,) and np.abs(m).max() <= self.N and np.all(m % 1 == 0):
            i = self._table[int((m + self.N) @ self._radix)]
            if i < len(self):
                return int(i)
        raise InactiveMode(f"mode {m.tolist()} is not in the active set")

    def k0_orbit(self) -> np.ndarray:
        """Positions of the orbit of the first generator, (1, 0, ..., 0), ascending."""
        e0 = self.position(np.eye(self.rank, dtype=int)[0])
        return np.flatnonzero(self.orbit == self.orbit[e0])

    def _transforms(self, axis_points: int | None):
        """Pruned DFT matrices for a grid of G >= 2N+1 points per axis.

        Returns (G, inv, inv_last, fwd, fwd_last).  ``inv`` (G, 2N+1) takes
        the frequencies m mod 2N+1 of one axis to its G grid points from the
        left, and ``fwd`` (G, 2N+1) takes them back from the right, unscaled.
        The last grid axis holds only m >= 0: ``inv_last`` (2(N+1), G) maps
        its interleaved real and imaginary parts to real values, with the
        Hermitian partners folded in, and ``fwd_last`` (G, 2(N+1)) maps real
        values to interleaved coefficients, scaled by 1/G^p.  A grid above
        MAX_GRID_BYTES per component is refused.
        """
        if axis_points is None:
            axis_points = self.product_axis_points
        G = max(int(axis_points), 2 * self.N + 1)
        hit = self._dft_cache.get(G)
        if hit is None:
            if 8 * G ** self.rank > MAX_GRID_BYTES:
                raise TooLarge(
                    f"a {G}^{self.rank} grid needs {8 * G ** self.rank / 2 ** 20:.0f} MiB "
                    f"per component; the limit is {MAX_GRID_BYTES / 2 ** 20:.0f} MiB"
                )
            N = self.N
            # one table of roots of unity, with w^(G-q) = conj(w^q) exactly,
            # indexed by the integer phase m x mod G
            roots = np.exp(2j * np.pi * np.arange(G) / G)
            q = np.arange(1, (G + 1) // 2)
            roots[G - q] = np.conj(roots[q])
            inv = roots[np.outer(np.arange(G), np.r_[0:N + 1, -N:0]) % G]
            wave = inv[:, :N + 1]  # e^{2 pi i k x / G}, k = 0..N
            fold = wave.T * np.where(np.arange(N + 1) == 0, 1.0, 2.0)[:, None]
            # C order: the F-ordered stack took the product at half speed
            inv_last = np.ascontiguousarray(
                np.stack((fold.real, -fold.imag), axis=1).reshape(2 * N + 2, G))
            fwd_last = np.stack((wave.real, -wave.imag), axis=2).reshape(G, 2 * N + 2) \
                / G ** self.rank
            hit = (G, inv, inv_last, inv.conj(), fwd_last)
            self._dft_cache[G] = hit
            # freeing a mapped block raises glibc's mmap threshold to its size
            # (up to 32 MiB) and the trim threshold to twice that; after this
            # untouched one, every grid temporary comes from the heap, not
            # from fresh, faulting pages, whatever ran before
            np.empty(4 * G ** self.rank)
        return hit

    def grid_values(self, coeffs: np.ndarray, axis_points: int | None = None) -> np.ndarray:
        """Real field values on a uniform torus grid (inverse transform).

        ``coeffs`` must be Hermitian, a_{-m} = conj(a_m): only the modes with
        last index >= 0 are read, and the rest are taken to be their
        partners' conjugates.  Coefficients stacked ``(..., nmodes)`` give
        grids stacked ``(..., G, ..., G)``, all from one call.  The default
        grid is ``product_axis_points`` per axis.  Each axis step is one
        product that widens the box's last axis and rotates it to the front.
        """
        G, inv, inv_last, _, _ = self._transforms(axis_points)
        lead, p = coeffs.shape[:-1], self.rank
        spec = np.concatenate((coeffs, np.zeros(lead + (1,), dtype=complex)), axis=-1)
        spec = spec.take(self._fill, axis=-1)
        for _ in range(p - 1):
            spec = inv @ spec.reshape(lead + (-1, 2 * self.N + 1)).swapaxes(-1, -2)
        vals = spec.reshape(-1, self.N + 1).view(float) @ inv_last  # all rows at once
        return vals.reshape(lead + (G,) * p)

    def coefficients_from_grid(self, vals: np.ndarray) -> np.ndarray:
        """Retained coefficients of the trigonometric interpolant of vals.

        Grids stacked ``(..., G, ..., G)`` give coefficients stacked
        ``(..., nmodes)``.  Chain every factor of a product on the grid and
        call this once: truncating an intermediate product to the active set
        would discard tail modes that feed back into retained ones.  A
        constant grid gives back its value exactly.
        """
        p = self.rank
        G, _, _, fwd, fwd_last = self._transforms(vals.shape[-1])
        lead = vals.shape[:-p]
        # transform the offset from the first point and add it back to the
        # zero mode: a constant's transform is then exactly zero, where a sum
        # of G^p equal values can land one ulp off
        first = vals[(...,) + (0,) * p]
        spec = ((vals - first[(...,) + (None,) * p]).reshape(-1, G) @ fwd_last).view(complex)
        # narrow the first grid axis and rotate it to the back, p-1 times
        for _ in range(p - 1):
            spec = spec.reshape(lead + (G, -1)).swapaxes(-1, -2) @ fwd
        out = spec.reshape(lead + (-1,)).take(self._gather, axis=-1)
        out.imag *= self._sign
        out[..., self.zero_position] += first
        return out


@dataclass
class HullField:
    """Coefficients of a truncated hull function on T^p.

    The Hermitian constraint is enforced at write time through
    ``set_coefficient``; bulk constructors should call ``hermitianized`` when
    the raw coefficients are not already symmetric.  ``symmetry_drift``
    measures how far a field is from group-invariant.
    """

    active: ActiveModeSet
    coeffs: np.ndarray

    @classmethod
    def zeros(cls, active: ActiveModeSet) -> "HullField":
        return cls(active, np.zeros(len(active), dtype=complex))

    # -- coefficient access -------------------------------------------------

    def set_coefficient(self, m, value: complex) -> None:
        """Set a_m (and a_{-m} = conj) so field values stay real."""
        i = self.active.position(m)
        j = self.active.neg_perm[i]
        value = complex(value)
        if i == j and abs(value.imag) > HERMITIAN_TOL * max(1.0, abs(value)):
            raise ValueError("self-conjugate mode must have a real coefficient")
        self.coeffs[i] = value
        self.coeffs[j] = np.conj(value)

    def get_coefficient(self, m) -> complex:
        return complex(self.coeffs[self.active.position(m)])

    def hermitianized(self) -> "HullField":
        c = 0.5 * (self.coeffs + np.conj(self.coeffs[self.active.neg_perm]))
        return HullField(self.active, c)

    def hermitian_defect(self) -> float:
        return float(
            np.max(np.abs(self.coeffs - np.conj(self.coeffs[self.active.neg_perm])))
        ) if len(self.coeffs) else 0.0

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "HullField") -> "HullField":
        self._check_same_active(other)
        return HullField(self.active, self.coeffs + other.coeffs)

    def __sub__(self, other: "HullField") -> "HullField":
        self._check_same_active(other)
        return HullField(self.active, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "HullField":
        return HullField(self.active, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_same_active(self, other: "HullField") -> None:
        if other.active is not self.active:
            raise ValueError("fields must share an active mode set")

    # -- norms ----------------------------------------------------------

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def hs_norm(self, s: float) -> float:
        w = (self.active.msq + 1.0) ** s
        return float(np.sqrt(np.sum(w * np.abs(self.coeffs) ** 2)))

    def grad_sq(self) -> float:
        """Sum over torus directions of the squared l2 norm of dU/dphi_i."""
        return float(np.sum(self.active.msq * np.abs(self.coeffs) ** 2))

    # -- symmetry ---------------------------------------------------------

    def symmetrize(self) -> "HullField":
        """Orthogonal projection onto the group-invariant subspace.

        The mean over each orbit, which is the mean over the group action
        since an orbit's modes have stabilisers of one size; idempotent.
        """
        sym = np.empty_like(self.coeffs)
        for block in self.active.orbit_blocks:
            sym[block] = self.coeffs[block].mean(axis=1, keepdims=True)
        return HullField(self.active, sym)

    def symmetry_drift(self) -> float:
        """max of |a_i - a_j| over pairs of one orbit, i.e. of |a_{gamma m} - a_m|."""
        drift = np.float64(0.0)
        for block in self.active.orbit_blocks:
            i, j = _pairs(block.shape[1])
            rows = max(1, BUILD_BLOCK // max(1, len(i)))
            for lo in range(0, len(block), rows):
                vals = self.coeffs[block[lo:lo + rows]]
                diff = vals.take(i, axis=1) - vals.take(j, axis=1)
                drift = np.maximum(drift, np.abs(diff).max(initial=0.0))
        return float(drift)

    def support_set(self, eps: float) -> np.ndarray:
        """Active indices with |a_m| > eps (rows)."""
        if eps < 0:
            raise ValueError("support threshold must be nonnegative")
        return self.active.indices[np.abs(self.coeffs) > eps]

    # -- sampling -----------------------------------------------------------

    def evaluate_physical(self, points: np.ndarray) -> np.ndarray:
        """Field values u(x) = U(A x) at physical points (rows).

        Raises ImaginaryResidue when coefficients are not Hermitian enough
        for the values to be real.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.active.module.dimension:
            raise ValueError("points have the wrong ambient dimension")
        out = np.empty(len(points))
        K = self.active.wavevectors
        for lo in range(0, len(points), EVAL_CHUNK):
            block = points[lo:lo + EVAL_CHUNK]
            waves = np.exp(1j * (block @ K.T))
            vals = waves @ self.coeffs
            resid = np.max(np.abs(vals.imag)) if len(vals) else 0.0
            if resid > IMAG_RESIDUE_TOL:
                raise ImaginaryResidue(
                    f"imaginary residue {resid:.3e}; coefficients are not Hermitian"
                )
            out[lo:lo + EVAL_CHUNK] = vals.real
        return out


@cache
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    # cached: building them took as long as a small class's differences
    return np.triu_indices(size, 1)


def convolve_direct(*fields: HullField) -> dict:
    """Exact convolution of the fields' coefficient arrays, as {index: coeff}.

    Brute force, no FFT; intended as an oracle for the pseudospectral path
    on small mode sets.  Raises TooLarge rather than grinding through a
    search with more than MAX_PAIR_SUMS pairwise products per stage.
    """
    out = {tuple(m): c for m, c in zip(fields[0].active.indices, fields[0].coeffs)}
    for f in fields[1:]:
        if len(out) * len(f.active) > MAX_PAIR_SUMS:
            raise TooLarge("direct convolution refused; use the padded-grid path")
        nxt: dict = {}
        items = list(out.items())
        for m1, c1 in items:
            if c1 == 0:
                continue
            for m2, c2 in zip(f.active.indices, f.coeffs):
                if c2 == 0:
                    continue
                key = tuple(np.array(m1) + m2)
                nxt[key] = nxt.get(key, 0.0) + c1 * c2
        out = nxt
    return out


def l1_hs_bound_constant(active: ActiveModeSet, s: float) -> float:
    """Cauchy-Schwarz constant C with l1 <= C * hs on this active set."""
    if s <= active.rank / 2.0:
        warnings.warn(
            f"s = {s} does not exceed p/2 = {active.rank / 2}; the constant "
            "does not stay bounded as the truncation grows",
            stacklevel=2,
        )
    return float(np.sqrt(np.sum((active.msq + 1.0) ** (-s))))


def condition_iii_check(field: HullField, ball_radius: float, covering_radius: float,
                        eps: float):
    """Covering check: every module point in the ball is near the support.

    Enumerates module points with |k| <= ball_radius (coefficients bounded
    by the module's relation bound), and tests that each lies within
    ``covering_radius`` of the wavevector of some mode with |a_m| > eps.
    Returns (ok, uncovered) where uncovered lists witness wavevectors.
    """
    if eps < 0:
        raise ValueError("support threshold must be nonnegative")
    sup = np.abs(field.coeffs) > eps
    support_k = field.active.wavevectors[sup]
    _, ball_k = module_points_in_ball(field.active.module, ball_radius)
    if len(support_k) == 0:
        return False, [k for k in ball_k]
    uncovered = []
    for k in ball_k:
        d = np.min(np.linalg.norm(support_k - k, axis=1))
        if d > covering_radius:
            uncovered.append(k)
    return len(uncovered) == 0, uncovered


def render_image(field: HullField, window: tuple[float, float],
                 resolution: int = 512) -> np.ndarray:
    """Grayscale raster of the field over a square planar window.

    Row r runs top-down (decreasing y), column c left-right (increasing x).
    The value range maps linearly onto 0..255; a constant field renders as
    mid-gray 128.
    """
    if field.active.module.dimension != 2:
        raise DimensionUnsupported("rendering needs a two-dimensional pattern")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must be a nonempty interval")
    xs = np.linspace(lo, hi, resolution)
    ys = np.linspace(hi, lo, resolution)
    K = field.active.wavevectors
    ex = np.exp(1j * np.outer(xs, K[:, 0]))
    ey = np.exp(1j * np.outer(ys, K[:, 1]))
    vals = (ey * field.coeffs) @ ex.T
    resid = np.max(np.abs(vals.imag))
    if resid > IMAG_RESIDUE_TOL:
        raise ImaginaryResidue(
            f"imaginary residue {resid:.3e}; coefficients are not Hermitian"
        )
    vals = vals.real
    vmin, vmax = vals.min(), vals.max()
    span = vmax - vmin
    if span < 1e-12 * max(1.0, abs(vmax), abs(vmin)):
        return np.full((resolution, resolution), 128, dtype=np.uint8)
    return np.round(255.0 * (vals - vmin) / span).astype(np.uint8)

"""Hull functions on the torus T^p, truncated to a symmetric set of modes.

A hull function is a row of complex coefficients on an "active" set of
integer mode indices: the largest subset of the box |m|_inf <= N that is
mapped to itself by every group element.  Closure under the group action
makes symmetrization exact; closure under negation lets the Hermitian
constraint a_{-m} = conj(a_m) keep field values real.  Negation reverses
the stored order: a row's partners are the row read backwards, zero its middle.

Every operation on coefficients is a row operation of ``ActiveModeSet``,
acting on the last axis of an array stacked ``(..., nmodes)``, one row or a
state's whole stack alike; every other function here takes the pair
``(active, coeffs)``.  ``HullField`` is that pair as one value, with no
methods, and only crosses the time loop's boundary: the initial conditions
return it, ``make_state`` and ``make_bruss_state`` take it, and the states'
views give it.

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
stored.  The inverse reads every stored slot, and the forward transform one
slot per conjugate pair: a mode whose last nonzero index is negative takes
its partner's, conjugated, so ``coefficients_from_grid`` returns exactly
Hermitian rows.  The transforms are pruned (Markel, IEEE Trans. Audio
Electroacoust. 19, 1971): the coefficients fill a box of (N+1) (2N+1)^(p-1)
entries, and the inverse widens it one axis at a time to G points, so no
transform runs over columns that are all zero, and ends on the real half
axis; the forward transform narrows it the other way.
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

from .symmetry import (MAX_GRID_BYTES, FrequencyModule, TooLarge, integer_box,
                       module_points_in_ball)

HERMITIAN_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-10
EVAL_CHUNK = 4096  # physical points per block of plane waves
# radians: a rendered plane-wave phase must be resolved this finely by float64
PHASE_SPACING_TOL = 1e-6
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


class ActiveModeSet:
    """Largest group-invariant set of modes in the box |m|_inf <= N.

    Every index m in the box has one int64 key, the mixed-radix number with
    digits m_j + N in base 2N+1.  Numeric order of keys is lexicographic
    order of indices, and the i-th row of ``integer_box`` has key i.  An
    index is kept when every integer representation maps it back into the
    box.  Indices are stored in key order, and derived arrays are aligned
    with it.  The keep mask is even and key(-m) = 2N sum(radix) - key(m),
    so -m sits at position n - 1 - i when m sits at i, and zero at n // 2.

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
    which is exact, and run in blocks of BUILD_BLOCK entries.  The row
    operations ``set_mode``, ``hermitian``, ``hermitian_defect``,
    ``symmetrize``, ``symmetry_drift`` and ``evaluate_physical`` act on the
    last axis of coefficients stacked (..., nmodes).
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

        # the smallest alias-free grid for cubic products (module docstring)
        self.product_axis_points = 4 * self.N + 1
        # flattened half-spectrum box: axis 0 holds m_{p-1} >= 0, the others
        # m_j mod 2N+1; the inverse fills each slot from its own mode, or a
        # zero (len(self)).  The forward transform reads one slot per pair: m
        # reads -m's, conjugated, when its last nonzero index is negative
        width = 2 * self.N + 1
        own = self.indices[:, -1]
        for j in range(p - 1):
            own = own * width + self.indices[:, j] % width
        half = self.indices[:, -1] >= 0
        self._fill = np.full((self.N + 1) * width ** (p - 1), len(self))
        self._fill[own[half]] = np.flatnonzero(half)
        # m's last nonzero index has the sign of sum_j m_j (2N+1)^j (balanced digits)
        flip = self.indices @ self._radix[::-1] < 0
        self._gather = np.where(flip, own[::-1], own)
        self._sign = np.where(flip, -1.0, 1.0)
        self.zero_position = len(self) // 2
        self._dft_cache: dict[int, tuple] = {}

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
        if self.N == 0:
            raise EmptyActiveSet("N = 0 keeps only the zero mode, which seeds no orbit; raise N")
        e0 = self.position(np.eye(self.rank, dtype=int)[0])
        return np.flatnonzero(self.orbit == self.orbit[e0])

    def set_mode(self, coeffs: np.ndarray, m, value: complex) -> None:
        """Write a_m = value and a_{-m} = conj(value) in every row, so values stay real."""
        i = self.position(m)
        j = len(self) - 1 - i
        value = complex(value)
        if i == j and abs(value.imag) > HERMITIAN_TOL * max(1.0, abs(value)):
            raise ValueError("self-conjugate mode must have a real coefficient")
        coeffs[..., i] = value
        coeffs[..., j] = np.conj(value)

    def hermitian(self, coeffs: np.ndarray) -> np.ndarray:
        """Every row's projection 0.5 (a_m + conj(a_{-m})); conjugate pairs keep their bits."""
        partners = np.conj(coeffs[..., ::-1])
        return np.where(coeffs == partners, coeffs, 0.5 * (coeffs + partners))

    def hermitian_defect(self, coeffs: np.ndarray) -> float:
        """max of |a_m - conj(a_{-m})| over all rows."""
        return float(np.abs(coeffs - np.conj(coeffs[..., ::-1])).max())

    def symmetrize(self, coeffs: np.ndarray) -> np.ndarray:
        """Every row's orthogonal projection onto the group-invariant subspace.

        The mean over each orbit, which is the mean over the group action
        since an orbit's modes have stabilisers of one size; idempotent.
        """
        sym = np.empty_like(coeffs)
        for block in self.orbit_blocks:
            # take, not coeffs[..., block]: that copy is not C-contiguous, and
            # the mean of a strided row sums in another order
            sym[..., block] = coeffs.take(block, axis=-1).mean(axis=-1, keepdims=True)
        return sym

    def symmetry_drift(self, coeffs: np.ndarray) -> float:
        """max of |a_i - a_j| over pairs of one orbit, i.e. of |a_{gamma m} - a_m|, all rows."""
        drift = np.float64(0.0)
        for block in self.orbit_blocks:
            i, j = _pairs(block.shape[1])
            rows = max(1, BUILD_BLOCK // max(1, len(i)))  # ~BUILD_BLOCK differences a row
            for lo in range(0, len(block), rows):
                vals = coeffs[..., block[lo:lo + rows]]
                diff = vals.take(i, axis=-1) - vals.take(j, axis=-1)
                drift = np.maximum(drift, np.abs(diff).max(initial=0.0))
        return float(drift)

    def evaluate_physical(self, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Field values u(x) = U(A x) at physical points (rows), ``(..., npoints)``.

        Each row takes the one-row call's product, so a stacked row's values
        equal its own.  Raises ImaginaryResidue when coefficients are not
        Hermitian enough for the values to be real, and ValueError when a
        value is not finite.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.module.dimension:
            raise ValueError("points have the wrong ambient dimension")
        out = np.empty(coeffs.shape[:-1] + (len(points),))
        for lo in range(0, len(points), EVAL_CHUNK):
            block = points[lo:lo + EVAL_CHUNK]
            with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite
                vals = np.exp(1j * (block @ self.wavevectors.T)) @ coeffs[..., None]
            out[..., lo:lo + EVAL_CHUNK] = _real_values(vals[..., 0])
        return out

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
        constant grid gives back its value exactly; rows are exactly Hermitian.
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
    """One row of coefficients with its active set, at the time loop's boundary only."""

    active: ActiveModeSet
    coeffs: np.ndarray


def _real_values(vals: np.ndarray) -> np.ndarray:
    """vals.real, refusing a non-finite value or an imaginary part above IMAG_RESIDUE_TOL."""
    if not np.isfinite(vals).all():
        raise ValueError("non-finite field value: a plane-wave phase overflowed "
                         "or a coefficient is not finite")
    resid = np.abs(vals.imag).max(initial=0.0)
    if resid > IMAG_RESIDUE_TOL:
        raise ImaginaryResidue(f"imaginary residue {resid:.3e}; coefficients are not Hermitian")
    return vals.real


@cache
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    # cached: building them took as long as a small class's differences
    return np.triu_indices(size, 1)


def convolve_direct(active: ActiveModeSet, *rows: np.ndarray) -> np.ndarray:
    """Exact convolution of rows of coefficients on ``active``, truncated to it.

    Brute force, no transform: an oracle for the pseudospectral products on
    small mode sets.  Each stage sums every pair of nonzero coefficients into
    a dict keyed by mode; the product's modes outside the set are dropped at
    the end.  A stage with more than MAX_PAIR_SUMS pairs is refused with
    TooLarge before any of its pairs is formed.
    """
    out = {tuple(m): c for m, c in zip(active.indices, rows[0])}
    for row in rows[1:]:
        if len(out) * len(active) > MAX_PAIR_SUMS:
            raise TooLarge("direct convolution refused; use the padded-grid path")
        nxt: dict = {}
        items = list(out.items())
        for m1, c1 in items:
            if c1 == 0:
                continue
            for m2, c2 in zip(active.indices, row):
                if c2 == 0:
                    continue
                key = tuple(np.array(m1) + m2)
                nxt[key] = nxt.get(key, 0.0) + c1 * c2
        out = nxt
    return np.array([out.get(tuple(m), 0.0) for m in active.indices], dtype=complex)


def l1_hs_bound_constant(active: ActiveModeSet, s: float) -> float:
    """Cauchy-Schwarz constant C with l1 <= C * hs on this active set."""
    if s <= active.rank / 2.0:
        warnings.warn(
            f"s = {s} does not exceed p/2 = {active.rank / 2}; the constant "
            "does not stay bounded as the truncation grows",
            stacklevel=2,
        )
    return float(np.sqrt(np.sum((active.msq + 1.0) ** (-s))))


def condition_iii_check(active: ActiveModeSet, coeffs: np.ndarray, ball_radius: float,
                        covering_radius: float, eps: float):
    """Covering check: every module point in the ball is near the support.

    Enumerates module points with |k| <= ball_radius (coefficients bounded
    by the module's relation bound), and tests that each lies within
    ``covering_radius`` of the wavevector of some mode with |a_m| > eps.
    Returns (ok, uncovered) where uncovered lists witness wavevectors.
    """
    if eps < 0:
        raise ValueError("support threshold must be nonnegative")
    support_k = active.wavevectors[np.abs(coeffs) > eps]
    _, ball_k = module_points_in_ball(active.module, ball_radius)
    if len(support_k) == 0:
        return False, [k for k in ball_k]
    uncovered = []
    for k in ball_k:
        d = np.min(np.linalg.norm(support_k - k, axis=1))
        if d > covering_radius:
            uncovered.append(k)
    return len(uncovered) == 0, uncovered


def render_image(active: ActiveModeSet, coeffs: np.ndarray, window: tuple[float, float],
                 resolution: int = 512) -> np.ndarray:
    """Grayscale raster of a planar field's coefficients over a square window.

    Row r runs top-down (decreasing y), column c left-right (increasing x).
    The value range maps linearly onto 0..255; a constant field renders as
    mid-gray 128.  A raster whose complex arrays would exceed MAX_GRID_BYTES
    is refused with TooLarge.  A window whose largest phase x k_j has a
    float64 spacing above PHASE_SPACING_TOL radians (from 2^33 rad on)
    is refused with ValueError, since its raster would be round-off noise,
    and so is one whose phases overflow.
    """
    if active.module.dimension != 2:
        raise DimensionUnsupported("rendering needs a two-dimensional pattern")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must be a nonempty interval")
    # the (resolution, modes) plane waves and the (resolution, resolution) product
    nbytes = 16 * resolution * max(resolution, len(active))
    if nbytes > MAX_GRID_BYTES:
        raise TooLarge(
            f"a {resolution} x {resolution} raster of {len(active)} modes needs "
            f"{nbytes / 2 ** 20:.3g} MiB per array; the limit is {MAX_GRID_BYTES / 2 ** 20:.3g} MiB"
        )
    K = active.wavevectors
    reach = max(abs(lo), abs(hi)) * float(np.abs(K).max())
    # an overflowing phase (reach = inf) is refused below as non-finite
    if np.isfinite(reach) and np.spacing(reach) > PHASE_SPACING_TOL:
        raise ValueError(
            f"window reaches plane-wave phase {reach:.3g} rad, where float64 spacing is "
            f"{np.spacing(reach):.3g} rad (limit {PHASE_SPACING_TOL:g}): the raster "
            "would be round-off noise"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite
        xs = np.linspace(lo, hi, resolution)
        ys = np.linspace(hi, lo, resolution)
        ex = np.exp(1j * np.outer(xs, K[:, 0]))
        ey = np.exp(1j * np.outer(ys, K[:, 1]))
        vals = _real_values((ey * coeffs) @ ex.T)
    vmin, vmax = vals.min(), vals.max()
    span = vmax - vmin
    if span < 1e-12 * max(1.0, abs(vmax), abs(vmin)):
        return np.full((resolution, resolution), 128, dtype=np.uint8)
    return np.round(255.0 * (vals - vmin) / span).astype(np.uint8)

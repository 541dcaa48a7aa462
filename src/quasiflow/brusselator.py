"""Two-component reaction-diffusion hulls: activator-depleted substrate kinetics.

Fields are stored in absolute (not deviation) variables so positivity is
meaningful.  The ETDRK2 or ETDRK4 stepper (etd.py) puts diffusion, the
same-component linear kinetics, and the lower-triangular cross coupling
B*u into the exact exponential; the quadratic-cubic term u^2 v and the
constant feed A stay in the explicit part handled by phi functions.  The
homogeneous steady state is then an exact fixed point of the discrete step at
any dt and on every product grid, not just to O(dt^2): each stage adds
phi-weighted rates L a + N(a), which vanish there because the forward
transform gives the constant u^2 v back exactly, so no large terms cancel
even where h L reaches thousands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import diagnostics, etd
from .etd import LowerTri
from .hull import ActiveModeSet, HullField

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
BRENT_MAX_ITER = 100


class NoBracket(RuntimeError):
    """No finite-wavelength minimum of the dispersion determinant."""


@dataclass(frozen=True)
class BrusselatorParams:
    """The Brusselator as an ETD system of the components (u, v).

    L holds diffusion, the same-component linear kinetics and the cross
    coupling B*u; N holds u^2 v and the constant feed A.
    """

    A: float
    B: float
    d1: float
    d2: float
    ncomp: ClassVar[int] = 2

    def __post_init__(self):
        if min(self.A, self.B, self.d1, self.d2) <= 0:
            raise ValueError("all four parameters must be positive")

    def linear_block(self, active: ActiveModeSet) -> LowerTri:
        ksq = active.ksq
        return LowerTri(
            np.stack((-self.d1 * ksq - (self.B + 1.0), -self.d2 * ksq)),
            np.full_like(ksq, self.B),
        )

    def nonlinear(self, grids: np.ndarray, active: ActiveModeSet) -> np.ndarray:
        u, v = grids
        uuv = active.coefficients_from_grid(u * u * v)
        out = np.array((uuv, -uuv))
        out[0, active.zero_position] += self.A
        return out

    def energy(self, coeffs: np.ndarray, linear: np.ndarray, nonlinear: np.ndarray) -> float:
        # no descent functional comparable to the gradient flow's
        return 0.0

    def config_keys(self) -> dict:
        return {"equation": "brusselator", "A": self.A, "B": self.B,
                "d1": self.d1, "d2": self.d2, "ic": "steady-plus-critical"}


def steady_state(params: BrusselatorParams) -> tuple[float, float]:
    """The homogeneous fixed point of the kinetics."""
    return params.A, params.B / params.A


def dispersion_matrix(params: BrusselatorParams, ksq: float) -> np.ndarray:
    """Linearization at the steady state, per squared wavenumber."""
    if ksq < 0:
        raise ValueError("squared wavenumber must be nonnegative")
    A, B = params.A, params.B
    return np.array([
        [-params.d1 * ksq + B - 1.0, A * A],
        [-B, -params.d2 * ksq - A * A],
    ])


def _interior_min_ksq(params: BrusselatorParams) -> tuple[float, float]:
    """Locate min_k det by golden-section plus exact parabolic refinement.

    The determinant is quadratic in the squared wavenumber, so after the
    golden-section narrows the bracket, one symmetric three-point parabola
    fit, kept inside k^2 >= 0, lands on the vertex to round-off.  It is
    evaluated on Python floats from coefficients formed once per call; they
    do not trap overflow, so a non-finite value (or parabola step) raises
    FloatingPointError.
    """
    A, B, d1, d2 = float(params.A), float(params.B), float(params.d1), float(params.d2)
    c2, c1, c0 = d1 * d2, d1 * A * A - d2 * (B - 1.0), A * A

    def det(ksq: float) -> float:
        f = c2 * (ksq * ksq) + c1 * ksq + c0
        if not math.isfinite(f):
            raise FloatingPointError(f"determinant {f} at k^2 = {ksq:.6g}")
        return f

    hi = 1.0
    for _ in range(200):
        if det(hi) > det(0.5 * hi):
            break
        hi *= 2.0
    else:
        raise NoBracket("determinant keeps decreasing; no interior minimum")
    lo = 0.0
    a, b = lo, hi
    c = b - GOLDEN_RATIO * (b - a)
    d = a + GOLDEN_RATIO * (b - a)
    fc, fd = det(c), det(d)
    while b - a > 1e-6 * (1.0 + b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO * (b - a)
            fc = det(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO * (b - a)
            fd = det(d)
    mid = 0.5 * (a + b)
    s = min(1e-3 * (1.0 + mid), 0.5 * mid)
    f0 = det(mid)
    fp = det(mid + s)
    fm = det(mid - s)
    denom = fp - 2.0 * f0 + fm
    vertex = mid if denom <= 0 else mid - 0.5 * s * (fp - fm) / denom
    if not (math.isfinite(denom) and math.isfinite(vertex)):
        raise FloatingPointError(f"parabola fit out of range at k^2 = {mid:.6g}")
    vertex = max(vertex, 0.0)
    return vertex, det(vertex)


def _brent_root(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A root of f between xa and xb by Brent's method (Brent 1973, ch. 4).

    Each iteration swaps the bracket so that the current point has the
    smaller |f|, tries a secant or inverse quadratic step, and bisects when
    that step is not short enough.  The steps and their floating-point
    operations are those of scipy's ``brentq``, so both return the same root
    bit for bit.  It stops when half the bracket is below
    (xtol + rtol |x|)/2; f must take opposite signs at the ends.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f must have different signs at the bracket's ends")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"root solve did not converge in {BRENT_MAX_ITER} iterations")


@dataclass(frozen=True)
class TuringReport:
    eta: float
    B_c: float
    k_c: float
    critical_eigenvector: tuple[float, float]
    turing_first: bool
    B_c_scan: float
    k_c_scan: float
    note: str

    def lines(self) -> list[str]:
        ev = self.critical_eigenvector
        return [
            f"eta = {self.eta:.17g}",
            f"B_c = {self.B_c:.17g}",
            f"k_c = {self.k_c:.17g}",
            f"eigenvector = {ev[0]:.17g} {ev[1]:.17g}",
            f"turing_first = {'true' if self.turing_first else 'false'}",
        ]


def turing_analysis(A: float, d1: float, d2: float) -> TuringReport:
    """Find the finite-wavelength onset of the homogeneous state.

    The scan minimizes the dispersion determinant over squared wavenumber
    inside a root solve on the feed parameter, by Brent's method
    (``_brent_root``), to a tolerance relative to B - 1 near B = 1; the
    closed forms B_c = (1 + A*eta)^2 and k_c^2 = A/sqrt(d1 d2) are
    cross-checked against it to 1e-8 relative and returned.  The scan runs
    on Python floats (``_interior_min_ksq``); parameters whose B_c, or
    determinant anywhere on its way, overflows raise ``ValueError``.
    """
    if not np.all(np.isfinite((A, d1, d2))):
        raise ValueError("parameters must be finite")
    if min(A, d1, d2) <= 0:
        raise ValueError("parameters must be positive")
    eta = float(np.sqrt(d1 / d2))
    ksq_closed = A / np.sqrt(d1 * d2)

    def min_det(B: float) -> float:
        return _interior_min_ksq(BrusselatorParams(A, B, d1, d2))[1]

    try:
        B_closed = (1.0 + A * eta) ** 2  # a float's ** raises OverflowError
        B_hi = 2.0
        for _ in range(200):
            if min_det(B_hi) < 0:
                break
            B_hi *= 2.0
        else:
            raise NoBracket("dispersion determinant never turns negative")
        B_scan = _brent_root(min_det, 1.0 + 1e-12, B_hi, 1e-13, 1e-15)
        if B_scan - 1.0 < 1e-3:  # k_c^2 ~ (B - 1)/(2 d1): resolve B - 1, not B
            B_scan = _brent_root(min_det, 1.0 + 1e-12, B_hi, 1e-13 * (B_scan - 1.0), 1e-15)
        ksq_scan, _ = _interior_min_ksq(BrusselatorParams(A, B_scan, d1, d2))
    except OverflowError:
        raise ValueError(f"B_c = (1 + A eta)^2 out of range at A eta = {A * eta:g}") from None
    except FloatingPointError as exc:
        raise ValueError(f"dispersion determinant out of range: {exc}") from None
    k_scan = float(np.sqrt(ksq_scan))

    rel_B = abs(B_scan - B_closed) / B_closed
    rel_k = abs(k_scan - np.sqrt(ksq_closed)) / np.sqrt(ksq_closed)
    if max(rel_B, rel_k) > 1e-8:
        warnings.warn(
            f"scan and closed forms disagree (relative {max(rel_B, rel_k):.2e})",
            stacklevel=2,
        )

    crit = dispersion_matrix(BrusselatorParams(A, B_scan, d1, d2), ksq_scan)
    _, _, vt = np.linalg.svd(crit)
    vec = vt[-1]
    if vec[np.argmax(np.abs(vec))] > 0:
        vec = -vec
    if vec[0] > 0:
        vec = -vec

    return TuringReport(
        eta=eta,
        B_c=B_closed,
        k_c=float(np.sqrt(ksq_closed)),
        critical_eigenvector=(float(vec[0]), float(vec[1])),
        turing_first=bool(B_closed < 1.0 + A * A),
        B_c_scan=B_scan,
        k_c_scan=k_scan,
        note=(
            "scan minimizes the dispersion determinant directly; the simplified "
            "k_c = sqrt(A/eta) form matches it only when the second diffusivity "
            "is 1, and onset precedes the homogeneous oscillation only when "
            "turing_first holds"
        ),
    )


class BrusselatorState(etd.EtdState):
    """Two-component state; ``u_field`` and ``v_field`` view its coefficients."""

    @property
    def u_field(self) -> HullField:
        return HullField(self.active, self.coeffs[0])

    @property
    def v_field(self) -> HullField:
        return HullField(self.active, self.coeffs[1])


def bruss_step(state: BrusselatorState, terms=None) -> BrusselatorState:
    """One exponential step of the state's scheme and dt (see ``etd.step``)."""
    return etd.step(state, terms)


def bruss_integrate(
    state: BrusselatorState,
    T: float,
    hooks=(),
    diag_every: int = 10,
    s: float = 3.0,
) -> tuple[BrusselatorState, diagnostics.Trajectory]:
    """March to time T recording two-component diagnostics (see ``etd.integrate``)."""
    return etd.integrate(state, T, bruss_step, hooks, diag_every, s)


def steady_ic(active: ActiveModeSet, params: BrusselatorParams) -> tuple[HullField, HullField]:
    """Both components constant at the homogeneous steady state."""
    ubar, vbar = steady_state(params)
    u = np.zeros(len(active), dtype=complex)
    v = np.zeros(len(active), dtype=complex)
    zero = np.zeros(active.rank, dtype=int)
    active.set_mode(u, zero, ubar)
    active.set_mode(v, zero, vbar)
    return HullField(active, u), HullField(active, v)


def steady_plus_critical_ic(
    active: ActiveModeSet,
    params: BrusselatorParams,
    eigenvector: tuple[float, float],
    amplitude: float,
) -> tuple[HullField, HullField]:
    """Steady state plus a symmetric critical-orbit mode along the eigenvector.

    The perturbation lives on the orbit of the first generator; scale the
    module so that orbit sits at the critical wavenumber.
    """
    u, v = steady_ic(active, params)
    orbit = active.k0_orbit()
    u.coeffs[orbit] += amplitude * eigenvector[0]
    v.coeffs[orbit] += amplitude * eigenvector[1]
    return u, v


def positivity_check(state: BrusselatorState, grid_resolution: int | None = None) -> tuple[float, float]:
    """Certified lower bounds on min u and min v over the whole torus.

    A component's bound is its minimum on a G^p grid (the product grid by
    default) less (pi/G) sum_m |a_m| |m|_1: every torus point lies within
    pi/G of a node in each coordinate, and |dU/dtheta_j| <= sum_m |a_m| |m_j|.
    """
    grids = state.active.grid_values(state.coeffs, grid_resolution)
    G = grids.shape[-1]
    slope = np.abs(state.coeffs) @ np.abs(state.active.indices).sum(axis=1)
    low = grids.reshape(len(grids), -1).min(axis=1) - np.pi / G * slope
    return float(low[0]), float(low[1])


def make_bruss_state(
    u: HullField,
    v: HullField,
    params: BrusselatorParams,
    dt: float = 0.01,
    dealias: int = 2,
    scheme: str = "etdrk2",
) -> BrusselatorState:
    """A state at t = 0 stacking the two components; the rest as in ``sh.make_state``."""
    if dealias != 2:
        raise ValueError(f"dealias = {dealias} is not supported; the only value is 2")
    if v.active is not u.active:
        raise ValueError("components must share one active mode set")
    return BrusselatorState(
        u.active, np.stack((u.coeffs, v.coeffs)), 0.0, params, scheme, dt,
    )

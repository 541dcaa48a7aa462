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

The Turing onset is scanned on the dispersion determinant, a parabola in
k^2 whose vertex is exact: bisecting B - 1 on the sign of its minimum finds
B_c - 1 to adjacent floats and k_c at the same vertex, which
``turing_analysis`` checks against the closed forms.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import diagnostics, etd
from .etd import LowerTri
from .hull import ActiveModeSet, HullField


class NoBracket(RuntimeError):
    """The dispersion determinant stays positive at every B the scan tries."""


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

    The dispersion determinant is c2 k^4 + c1 k^2 + c0 with c2 = d1 d2,
    c1 = d1 A^2 - d2 (B - 1) and c0 = A^2, so its minimum over k^2 >= 0 is
    c0 + c1 k^2/2 at the vertex k^2 = max(-c1/(2 c2), 0).  At B = 1 that
    minimum is A^2 > 0.  The scan doubles B - 1 from 1 until the minimum
    turns negative, bisects B - 1 down to adjacent floats, and reads B_c and
    k_c off the vertex at the negative end.  The closed forms
    B_c = (1 + A*eta)^2 and k_c^2 = A/sqrt(d1 d2) are cross-checked against
    it to 1e-8 relative and returned.  The scan runs on Python floats;
    parameters whose eta or B_c overflows, whose d1 d2, d1 A^2 or A^2 is not
    a normal finite float, or whose minimum is not finite on the way, raise
    ``ValueError``.
    """
    A, d1, d2 = float(A), float(d1), float(d2)
    if not all(map(math.isfinite, (A, d1, d2))):
        raise ValueError("parameters must be finite")
    if min(A, d1, d2) <= 0:
        raise ValueError("parameters must be positive")
    eta = math.sqrt(d1 / d2)
    if eta == math.inf:
        raise ValueError("eta = sqrt(d1/d2) out of range: d1/d2 overflows")
    try:
        B_closed = (1.0 + A * eta) ** 2  # a float's ** raises OverflowError
    except OverflowError:
        raise ValueError(f"B_c = (1 + A eta)^2 out of range at A eta = {A * eta:g}") from None
    c2, dA2, c0 = d1 * d2, d1 * A * A, A * A
    for name, c in (("d1 d2", c2), ("d1 A^2", dA2), ("A^2", c0)):
        if not sys.float_info.min <= c < math.inf:
            raise ValueError(f"dispersion determinant out of range: {name} = {c:g}")

    def vertex(beta: float) -> tuple[float, float]:
        """The minimizing k^2 >= 0 at B = 1 + beta, and the minimum there."""
        c1 = dA2 - d2 * beta
        ksq = max(-0.5 * c1 / c2, 0.0)
        f = c0 + 0.5 * c1 * ksq
        if not math.isfinite(f):
            raise ValueError(f"dispersion determinant out of range: minimum {f} at B - 1 = {beta:g}")
        return ksq, f

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if vertex(hi)[1] < 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NoBracket("dispersion determinant never turns negative")
    # stops when lo and hi are adjacent floats: no tolerance to choose
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if vertex(mid)[1] < 0:
            hi = mid
        else:
            lo = mid
    ksq_scan = vertex(hi)[0]
    B_scan, k_scan = 1.0 + hi, math.sqrt(ksq_scan)
    k_closed = math.sqrt(A / math.sqrt(c2))

    disagree = max(abs(B_scan - B_closed) / B_closed, abs(k_scan - k_closed) / k_closed)
    if not disagree <= 1e-8:
        warnings.warn(f"scan and closed forms disagree (relative {disagree:.2e})", stacklevel=2)

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
        k_c=k_closed,
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

"""Exponential time differencing for semilinear systems u_t = L u + N(u).

One engine steps both equations.  An equation is described by its params
object, which provides

- ``ncomp``, the number of components;
- ``linear_block(active)``, the per-mode linear operator L as a ``LowerTri``:
  diagonal for one component, lower-triangular 2x2 for two;
- ``nonlinear(grids, active)``, the coefficients of N(u), stacked as
  ``(ncomp, nmodes)`` like the state's, from the components' values
  ``grids`` on the active set's product grid, stacked ``(ncomp, G, ..., G)``,
  which the engine synthesizes;
- ``energy(coeffs, linear, nonlinear)``, the descent functional recorded in
  diagnostics, given the coefficients and the pair ``(L a, N(a))`` that
  ``EtdState.terms`` returns, so it needs no grid synthesis of its own.

L is integrated exactly through its exponential and phi functions; N enters
through the ETDRK2 or ETDRK4 combination (Cox & Matthews, J. Comput. Phys.
176, 2002; Hochbruck & Ostermann, Acta Numerica 19, 2010), for either block.
A step is fixed by L, N, the scheme and the step h, so an ``EtdState``
carries its ``scheme`` and ``dt`` with its coefficients and params, and
``step`` takes the state, with its (L a, N(a)) when the caller holds them;
another step size is ``replace(state, dt=h)``.

The combinations are written in increment form: with e^{hL} = I + hL phi_1(hL)
each stage is the current value plus phi-weighted rates L a + N, e.g. ETDRK2's
predictor a + h phi_1(hL) (L a + N(a)).  A fixed point, where L a + N(a) = 0,
then gets a zero increment at any step instead of a difference of large terms
that cancel only to round-off.

Every ETDRK stage starts from the rates at a_n, the pair (L a, N(a))
(``EtdState.terms``).  ``integrate`` computes it for a recorded state from
the product grid it synthesizes, gives both to ``diagnostics.record``, which
reads the extrema off that grid, and hands the pair on to the next
``step``: a record and the step after it share one nonlinear evaluation, so
a recorded ETDRK2 step pays two instead of three, and an unrecorded step
pays no min/max reduction.  A state caches nothing derived from its
coefficients; it memoizes only its ETD tables, keyed on the params and
active set objects, dt and scheme.

One family phi_j(z) = (e^z - sum_{n<j} z^n/n!)/z^j, with phi_0 = exp, drives
the steppers.  Away from zero the closed forms built on expm1 are stable;
below the series threshold the defining Taylor series avoids the 0/0
cancellation entirely.

A coupled two-component block needs the same functions of a lower-triangular
2x2 matrix [[x, 0], [w, y]].  Any analytic f gives
f([[x,0],[w,y]]) = [[f(x), 0], [w*f[x,y], f(y)]] with f[x,y] the divided
difference (f(x)-f(y))/(x-y) (``divided_difference``).  Every table is a phi
function of h L or a linear combination of them (``LowerTri.phi``), so one
code path builds both schemes for both block shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics
from .diagnostics import NonFiniteState
from .hull import ActiveModeSet

SERIES_THRESHOLD = 1e-2
SERIES_TERMS = 8
SCHEMES = ("etdrk2", "etdrk4")


def phi(j: int, z):
    """phi_j(z) = (e^z - sum_{n<j} z^n/n!)/z^j elementwise; phi_0 is exp."""
    z = np.asarray(z, dtype=float)
    if j == 0:
        return np.exp(z)
    series = np.zeros_like(z)
    for n in range(SERIES_TERMS - 1, -1, -1):
        series = series * z + 1.0 / math.factorial(n + j)
    small = np.abs(z) < SERIES_THRESHOLD
    safe = np.where(small, 1.0, z)
    num = np.expm1(safe)
    for n in range(1, j):
        num = num - safe ** n / math.factorial(n)
    return np.where(small, series, num / safe ** j)


def _h_series_divided(x, y, j):
    """Divided difference of phi_j by its joint Taylor series.

    phi_j[x, y] = sum_m h_m(x, y)/(m + j + 1)! with h_m the complete
    homogeneous symmetric polynomials, generated by the two-variable
    recurrence h_m = x*h_{m-1} + y^m.  It is called for max(|x|, |y|) < 0.5,
    where 18 terms are far past round-off.
    """
    h = np.ones_like(x)
    ypow = np.ones_like(x)
    out = h / math.factorial(j + 1)
    for m in range(1, 18):
        ypow = ypow * y
        h = x * h + ypow
        out += h / math.factorial(m + j + 1)
    return out


def divided_difference(j: int, x, y):
    """phi_j[x, y] = (phi_j(x) - phi_j(y))/(x - y), stable in every regime.

    Well-separated arguments take the direct quotient.  Close ones take the
    exact identity phi_0[x, y] = e^y phi_1(x - y) and climb from it to j >= 1
    away from the origin; near the origin j >= 1 takes a joint series.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    scale = np.maximum(np.abs(x), np.abs(y))
    small = (scale < 0.5) & (j > 0)
    apart = np.abs(x - y) > 0.1 * (1.0 + scale)
    out = np.empty(x.shape)

    # near the origin: joint series, immune to every cancellation
    if np.any(small):
        out[small] = _h_series_divided(x[small], y[small], j)

    # well-separated arguments: direct quotient of stable scalar values.  For
    # j = 0 this also keeps e^y from underflowing while phi_1(x - y) overflows
    m_dir = ~small & apart
    if np.any(m_dir):
        xd, yd = x[m_dir], y[m_dir]
        out[m_dir] = (phi(j, xd) - phi(j, yd)) / (xd - yd)

    # close arguments, away from the origin when j >= 1 (so |x| > 0.35):
    # climb from phi_0 by phi_k[x, y] = (phi_{k-1}[x, y] - phi_k(y))/x, the
    # divided difference of z phi_k(z) = phi_{k-1}(z) - 1/(k-1)!
    m_mid = ~small & ~apart
    if np.any(m_mid):
        xm, ym = x[m_mid], y[m_mid]
        val = np.exp(ym) * phi(1, xm - ym)
        for k in range(1, j + 1):
            val = (val - phi(k, ym)) / xm
        out[m_mid] = val
    return out


@dataclass(frozen=True)
class LowerTri:
    """Per-mode lower-triangular matrices acting on stacked coefficients.

    ``diag`` holds the diagonal, shaped (ncomp, nmodes); ``low`` the entry
    coupling component 0 into component 1, or None for a diagonal block.
    ``block @ coeffs`` applies every mode's matrix to its coefficients;
    blocks scale by numbers and add entrywise, like the matrices they hold.
    """

    diag: np.ndarray
    low: np.ndarray | None = None

    def __matmul__(self, coeffs: np.ndarray) -> np.ndarray:
        out = self.diag * coeffs
        if self.low is not None:
            out[1] += self.low * coeffs[0]
        return out

    def __rmul__(self, c: float) -> LowerTri:
        return LowerTri(c * self.diag, None if self.low is None else c * self.low)

    def __add__(self, other: LowerTri) -> LowerTri:
        low = None if self.low is None else self.low + other.low
        return LowerTri(self.diag + other.diag, low)

    def __sub__(self, other: LowerTri) -> LowerTri:
        return self + -1.0 * other

    def phi(self, j: int) -> LowerTri:
        """phi_j of every mode's matrix; w phi_j[x, y] below the diagonal."""
        low = None if self.low is None else self.low * divided_difference(j, *self.diag)
        return LowerTri(phi(j, self.diag), low)


class EtdTables:
    """Per-run stepper coefficients for a fixed (linear block, scheme, dt).

    Every table is a phi function of the block h L, or a linear combination
    of them, so it is a ``LowerTri`` applied like the linear block ``L``
    itself.  The weights satisfy hp1 = h phi_1(hL), hq = (h/2) phi_1(hL/2)
    and f1 + 2 f2 + f3 = h phi_1(hL), which the increment form relies on.
    """

    def __init__(self, linear: LowerTri, scheme: str, dt: float):
        self.scheme = scheme
        self.dt = h = dt
        self.L = linear
        z = h * linear
        if scheme == "etdrk2":
            self.hp1 = h * z.phi(1)
            self.hp2 = h * z.phi(2)
        else:
            self.hq = 0.5 * h * (0.5 * z).phi(1)
            p1, p2, p3 = z.phi(1), z.phi(2), z.phi(3)
            self.f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
            self.f2 = h * (2.0 * p2 - 4.0 * p3)
            self.f3 = h * (4.0 * p3 - p2)


@dataclass
class EtdState:
    """A semilinear system at time t: coefficients stacked (ncomp, nmodes).

    The coefficients are exactly Hermitian: they are projected where they
    enter (``make_state``, ``make_bruss_state``, ``read_snapshot``), and
    ``step`` keeps them so.  The state carries the step that advances it,
    ``scheme`` (one of ``SCHEMES``) and ``dt`` (> 0); both are checked on
    construction, so a ``replace`` with a bad value raises ``ValueError``
    too.  It memoizes its ETD tables (``tables``) and nothing derived from
    its coefficients.
    """

    active: ActiveModeSet
    coeffs: np.ndarray
    t: float
    params: object
    scheme: str
    dt: float
    step_index: int = 0
    _tables: tuple | None = None  # (params, active, EtdTables)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")

    def _held_tables(self) -> EtdTables | None:
        """The tables last built, if they were built for these params and active set."""
        memo = self._tables
        if memo is not None and memo[0] is self.params and memo[1] is self.active:
            return memo[2]
        return None

    def tables(self) -> EtdTables:
        """The ETD tables, memoized on params, active set, dt and scheme."""
        tab = self._held_tables()
        if tab is None or tab.dt != self.dt or tab.scheme != self.scheme:
            tab = EtdTables(self.params.linear_block(self.active), self.scheme, self.dt)
            self._tables = (self.params, self.active, tab)
        return tab

    def terms(self, grids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(L a, N(a)); their sum is the time derivative of the coefficients.

        N(a) is computed from ``grids``, the coefficients' values on the
        product grid, which are synthesized here when not given.  L comes
        from any tables the state holds, whatever their dt, since L is the
        same at every dt.  Nothing is cached: each call computes the pair.
        """
        if grids is None:
            grids = self.active.grid_values(self.coeffs)
        L = (self._held_tables() or self.tables()).L
        return L @ self.coeffs, self.params.nonlinear(grids, self.active)


def step(state: EtdState, terms: tuple[np.ndarray, np.ndarray] | None = None) -> EtdState:
    """One exponential time differencing step of the state's scheme and dt.

    ``terms`` is the state's (L a, N(a)) when the caller already holds it,
    as ``integrate`` does after a record; otherwise the step computes it.
    The linear factor is exact.  Exactly Hermitian coefficients, which
    ``integrate`` checks, stay so unprojected: N(a) is exactly Hermitian
    (``coefficients_from_grid``), and every table is real and equal on m and -m.
    """
    tab = state.tables()
    a = state.coeffs

    def nonlinear(coeffs):
        return state.params.nonlinear(state.active.grid_values(coeffs), state.active)

    # overflow surfaces as the explicit NonFiniteState below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        La, Na = state.terms() if terms is None else terms
        if tab.scheme == "etdrk2":
            pred = a + tab.hp1 @ (La + Na)
            out = pred + tab.hp2 @ (nonlinear(pred) - Na)
        else:
            an = a + tab.hq @ (La + Na)
            Nb = nonlinear(an)
            bn = a + tab.hq @ (La + Nb)
            Nc = nonlinear(bn)
            cn = an + tab.hq @ (tab.L @ an + 2.0 * Nc - Na)
            Nd = nonlinear(cn)
            out = (a + tab.f1 @ (La + Na) + tab.f2 @ (2.0 * La + Nb + Nc)
                   + tab.f3 @ (La + Nd))
    if not np.all(np.isfinite(out.view(float))):
        raise NonFiniteState(
            f"non-finite coefficient after step at t = {state.t:.6g}"
        )
    return replace(state, coeffs=out, t=state.t + tab.dt, step_index=state.step_index + 1)


def integrate(
    state: EtdState,
    T: float,
    step,
    hooks=(),
    diag_every: int = 10,
    s: float = 3.0,
) -> tuple[EtdState, diagnostics.Trajectory]:
    """March to time T with ``step``, recording diagnostics every diag_every steps.

    The first state is always recorded, with Sobolev index ``s``, and so is
    the final one when a step was taken.  A recorded state's product grid is
    synthesized once: its (L a, N(a)) come from it, the record reads its
    extrema off it, and the pair is handed to the next ``step(state, terms)``.
    Hooks are called with (state, record) at each recording and must leave
    the state unchanged.  A final fractional step lands exactly on T when T
    is not a multiple of dt.  A blow-up raises NonFiniteState carrying the
    trajectory, which then holds the records taken before it.  Before any
    record, ValueError refuses a negative T, a non-finite T / dt, a dt that
    cannot advance the clock at t + T, and finite coefficients not exactly Hermitian.
    """
    if T < 0:
        raise ValueError("horizon must be nonnegative")
    dt = state.dt
    if not np.isfinite(T / dt):
        raise ValueError(f"T / dt = {T!r} / {dt!r} is not a finite number of steps")
    if state.t + T + dt == state.t + T:
        raise ValueError(f"dt = {dt!r} cannot advance the clock at t = {state.t + T!r}")
    defect = state.active.hermitian_defect(state.coeffs)
    if defect > 0 and np.isfinite(state.coeffs).all():
        raise ValueError(f"coefficients are not exactly Hermitian (defect {defect:.3e})")
    traj = diagnostics.Trajectory([], dt=dt)
    n_steps = int(np.floor(T / dt + 1e-9))
    remainder = T - n_steps * dt

    def grab(st):
        """Record ``st`` and return its (L a, N(a)) for the step that follows."""
        # an overflow surfaces as the record's NonFiniteState
        with np.errstate(over="ignore", invalid="ignore"):
            grids = st.active.grid_values(st.coeffs)
            terms = st.terms(grids)
        rec = diagnostics.record(st, grids, terms, s=s)
        traj.records.append(rec)
        for hook in hooks:
            hook(st, rec)
        return terms

    start = state.step_index
    try:
        terms = grab(state)
        for i in range(1, n_steps + 1):
            state = step(state, terms)
            terms = grab(state) if i % diag_every == 0 and i != n_steps else None
        if remainder > 1e-12 * max(1.0, T):
            state = replace(step(replace(state, dt=remainder), terms), dt=dt)
        if state.step_index != start:
            grab(state)
    except NonFiniteState as exc:
        done = state.step_index - start
        raise NonFiniteState(f"{exc} (blow-up after {done} full steps)", traj) from None
    return state, traj

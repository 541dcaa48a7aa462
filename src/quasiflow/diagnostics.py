"""Trajectory records and the inequality checks run over them.

A DiagnosticsRecord is a pure snapshot of one solver state; a Trajectory is
the ordered list of records plus the run constants the checks need (dt and
Sobolev index; a check that needs the bifurcation parameter takes it as an
argument).  Check functions never mutate their inputs and carry their
tolerances in the returned CheckReport, whose rule is always: passed iff
worst_slack <= tolerance.

Discrete-time slack allowances come from the stepper's local error order:
monotonicity of the descent functional is allowed 10*dt^3 per step, its
derivative identity C*dt with C calibrated from the trajectory itself, and
the mass inequality 10*dt^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hull import ActiveModeSet, condition_iii_check

DECAY_TOL = 1e-9
L1_CONTROL_TOL = 1e-12
# relative margin of the absorbing ball a trajectory must enter
BALL_MARGIN = 0.1


class NeverEnters(ValueError):
    """Trajectory ended before reaching the absorbing ball."""


class NonFiniteState(FloatingPointError):
    """A state or its diagnostics left the representable range (blow-up).

    When raised by a time loop, ``trajectory`` holds the records taken
    before the blow-up; otherwise it is None.
    """

    def __init__(self, message: str, trajectory: "Trajectory | None" = None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One record's columns; its fields are the only list of them.

    A column that is not None must be finite, or NonFiniteState names it with
    the record's time and step.  The CSV writes the fields in this order,
    less ``step`` and the second component's extrema when they are None.
    """

    t: float
    step: int
    l2: float
    l1: float
    hs: float
    energy: float
    rhs_l2: float
    grad_hull_sq: float
    sym_drift: float
    min_u: float
    max_u: float
    min_v: float | None = None
    max_v: float | None = None

    def __post_init__(self):
        bad = [name for name in self.__dataclass_fields__
               if (v := getattr(self, name)) is not None and not math.isfinite(v)]
        if bad:
            raise NonFiniteState(f"non-finite diagnostics ({', '.join(bad)}) "
                                 f"at t = {self.t:.6g} (step {self.step})")
        if self.l2 > self.l1 + 1e-12:
            raise ValueError("l2 exceeded l1; coefficients are inconsistent")


@dataclass
class Trajectory:
    records: list
    dt: float

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


def record(state, grids: np.ndarray, terms: tuple[np.ndarray, np.ndarray],
           s: float = 3.0) -> DiagnosticsRecord:
    """Snapshot a solver state; pure, so safe to call repeatedly.

    ``grids`` are the state's values on the product grid, stacked like its
    coefficients, and ``terms`` its (L a, N(a)) computed from them
    (``EtdState.terms``); the time loop synthesizes the grid once and hands
    the pair on to the next step.  The extrema columns are read off
    ``grids``: samples on the product grid, not torus bounds.

    Norms are reduced from the rows of ``state.coeffs``, one per component:
    l2-type norms in quadrature, l1 and the squared gradient by sum.  The
    energy column is the equation's descent functional, and the extrema of
    the second component, if any, fill min_v/max_v.  A diagnostic that
    overflows raises NonFiniteState (see ``DiagnosticsRecord``).
    """
    act, coeffs = state.active, state.coeffs
    linear, nonlinear = terms
    # an overflow surfaces as the record's NonFiniteState
    with np.errstate(over="ignore", invalid="ignore"):
        flat = grids.reshape(len(grids), -1)
        extrema = list(zip(flat.min(axis=1).tolist(), flat.max(axis=1).tolist()))
        (min_u, max_u), (min_v, max_v) = (extrema + [(None, None)])[:2]
        mag = np.abs(coeffs)
        sq = mag ** 2  # np.abs(c) ** 2 of each row, bit for bit
        values = dict(
            l2=float(np.hypot.reduce([np.linalg.norm(c) for c in coeffs])),
            l1=float(sum(mag.sum(axis=-1))),
            hs=float(np.hypot.reduce(np.sqrt(((act.msq + 1.0) ** s * sq).sum(axis=-1)))),
            energy=state.params.energy(coeffs, linear, nonlinear),
            rhs_l2=float(np.hypot.reduce([np.linalg.norm(r) for r in linear + nonlinear])),
            grad_hull_sq=float(sum((act.msq * sq).sum(axis=-1))),
            sym_drift=act.symmetry_drift(coeffs),
            min_u=min_u, max_u=max_u, min_v=min_v, max_v=max_v,
        )
    return DiagnosticsRecord(t=float(state.t), step=state.step_index, **values)


@dataclass(frozen=True)
class CheckReport:
    """A check's worst slack against its tolerance, and where it occurred.

    ``passed`` is derived, not given: worst_slack <= tolerance, so a NaN
    slack fails.  Every field is a plain Python scalar, so
    ``dataclasses.asdict`` of a report, ``passed`` included, serializes
    with json.
    """

    name: str
    passed: bool = field(init=False)
    worst_slack: float
    worst_t: float
    tolerance: float

    def __post_init__(self):
        for name in ("worst_slack", "worst_t", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "passed", self.worst_slack <= self.tolerance)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.name}: worst slack {self.worst_slack:.3e} "
            f"(tolerance {self.tolerance:.3e}) at t = {self.worst_t:.4g}"
        )


def _report(name, slacks, times, tolerance) -> CheckReport:
    slacks = np.asarray(slacks, dtype=float)
    if len(slacks) == 0:
        return CheckReport(name, -np.inf, 0.0, tolerance)
    i = int(np.argmax(slacks))
    return CheckReport(name, slacks[i], times[i], tolerance)


def check_decay_negative_lambda(traj: Trajectory, lam: float) -> CheckReport:
    """l2(t) <= e^{lam t} l2(0), the linear decay rate with the cubic helping."""
    if lam >= 0:
        raise ValueError("decay check needs a negative bifurcation parameter")
    t = traj.times
    l2 = traj.column("l2")
    slack = l2 - np.exp(lam * t) * l2[0]
    return _report("exponential-decay", slack, t, DECAY_TOL)


def check_decay_zero_lambda(traj: Trajectory) -> CheckReport:
    """At the bifurcation point: l2(t)^2 <= N0/(1 + N0 t) (comparison bound)."""
    t = traj.times
    n = traj.column("l2") ** 2
    slack = n - n[0] / (1.0 + n[0] * t)
    return _report("polynomial-decay", slack, t, DECAY_TOL)


def check_absorbing_ball(traj: Trajectory, lam: float) -> CheckReport:
    """Trajectories enter the ball of radius (1+BALL_MARGIN)*sqrt(lam) and stay.

    Starting inside the unit-radius ball sqrt(lam) additionally verifies
    forward invariance of that smaller ball.
    """
    if lam <= 0:
        raise ValueError("absorbing ball needs a positive bifurcation parameter")
    t = traj.times
    l2 = traj.column("l2")
    root = np.sqrt(lam)
    radius = (1.0 + BALL_MARGIN) * root
    if l2[0] <= root:
        slack, times, name = l2 - root, t, "ball-invariance"
    else:
        inside = np.nonzero(l2 <= radius)[0]
        if len(inside) == 0:
            raise NeverEnters(
                f"never reached radius {radius:.4g}; final l2 = {l2[-1]:.4g}"
            )
        k = inside[0]
        slack, times, name = l2[k:] - radius, t[k:], "ball-entry"
    return _report(name, slack, times, DECAY_TOL)


def check_lyapunov(traj: Trajectory) -> tuple[CheckReport, CheckReport]:
    """Descent of the gradient-flow functional, and its derivative identity.

    Returns (monotonicity, identity).  Monotonicity allows 10*dt^3 of local
    error per step; the identity compares the finite-difference slope of the
    functional with the negative squared flow speed at interval midpoints,
    within C*dt for C = 10*max rhs_l2^2.
    """
    t = traj.times
    P = traj.column("energy")
    steps = traj.column("step")
    rhs2 = traj.column("rhs_l2") ** 2
    dP = np.diff(P)
    nsteps = np.maximum(np.diff(steps), 1.0)
    mono_slack = dP / nsteps
    mono = _report("lyapunov-monotonicity", mono_slack, t[1:], 10.0 * traj.dt ** 3)

    dt_rec = np.diff(t)
    mid_rhs2 = 0.5 * (rhs2[:-1] + rhs2[1:])
    ident_slack = np.abs(dP / dt_rec + mid_rhs2)
    C = 10.0 * float(np.max(rhs2)) if len(rhs2) else 0.0
    ident = _report("lyapunov-identity", ident_slack, 0.5 * (t[:-1] + t[1:]), C * traj.dt)
    return mono, ident


def check_energy_inequality(traj: Trajectory, lam: float) -> CheckReport:
    """Finite-difference d(l2^2)/dt <= N(lam - N) + 10*dt^2."""
    t = traj.times
    n = traj.column("l2") ** 2
    dn = np.diff(n) / np.diff(t)
    bound = n[:-1] * (lam - n[:-1])
    slack = dn - bound - 10.0 * traj.dt ** 2
    return _report("mass-inequality", slack, t[1:], DECAY_TOL)


def check_h1_growth(traj: Trajectory, lam: float) -> CheckReport:
    """Squared hull gradient grows no faster than e^{2 lam t}."""
    t = traj.times
    g = traj.column("grad_hull_sq")
    slack = g - np.exp(2.0 * lam * t) * g[0]
    return _report("gradient-growth", slack, t, DECAY_TOL)


def check_l1_control(traj: Trajectory, constant: float) -> CheckReport:
    """l1 <= C * hs at every sample, C from the active set and Sobolev index."""
    slack = traj.column("l1") - constant * traj.column("hs")
    return _report("l1-sobolev-control", slack, traj.times, L1_CONTROL_TOL)


def check_symmetry_preservation(traj: Trajectory, tolerance: float = 1e-10) -> CheckReport:
    """Symmetry drift stays at round-off along the whole trajectory."""
    return _report("symmetry-preservation", traj.column("sym_drift"), traj.times, tolerance)


def check_separation(traj: Trajectory, threshold: float) -> CheckReport:
    """Half-range of the pattern stays above a calibrated floor."""
    sep = 0.5 * (traj.column("max_u") - traj.column("min_u"))
    slack = threshold - sep
    return _report("separation-from-constants", slack, traj.times, 0.0)


@dataclass(frozen=True)
class ClassificationReport:
    """Quasicrystal conditions: finite spectrum mass, dense-rank support,
    covering of the small wavevector ball."""

    l1_mass: float
    condition_i: bool
    condition_ii: bool
    support_integer_rank: int
    support_real_rank: int
    condition_iii: bool
    best_eps: float
    caveat: str


def classify_quasicrystal(active: ActiveModeSet, coeffs: np.ndarray, eps_grid, M: float,
                          r: float) -> ClassificationReport:
    """Evaluate the three defining conditions on a truncated field.

    Condition (i), summable amplitudes, always holds on a truncation and is
    reported with that caveat.  Condition (ii) asks that the subgroup
    generated by the eps-support is not uniformly discrete: true when the
    integer rank of the support indices exceeds the dimension of their
    wavevector span.  Condition (iii) runs the covering check over the eps
    grid and reports the largest eps that passes.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    mass = float(np.abs(coeffs).sum())

    smallest = eps_grid[0] if eps_grid else 0.0
    if smallest < 0:
        raise ValueError("support threshold must be nonnegative")
    support = active.indices[np.abs(coeffs) > smallest]
    if len(support) == 0:
        int_rank = real_rank = 0
        cond_ii = False
    else:
        int_rank = int(np.linalg.matrix_rank(support.astype(float), tol=1e-9))
        kvecs = support @ active.module.generators
        real_rank = int(np.linalg.matrix_rank(kvecs, tol=1e-9))
        cond_ii = int_rank > real_rank

    best = 0.0
    cond_iii = False
    for eps in reversed(eps_grid):
        ok, _ = condition_iii_check(active, coeffs, M, r, eps)
        if ok:
            best = eps
            cond_iii = True
            break

    return ClassificationReport(
        l1_mass=mass,
        condition_i=bool(np.isfinite(mass)),
        condition_ii=bool(cond_ii),
        support_integer_rank=int_rank,
        support_real_rank=real_rank,
        condition_iii=cond_iii,
        best_eps=best,
        caveat=(
            "truncated spectrum: summability is automatic and the covering "
            "check enumerates bounded-coefficient module points only"
        ),
    )

"""Fourth-order pattern-forming dynamics on the hull torus.

The evolution dU/dt = -(lap+1)^2 U + lam*U - U^3 diagonalizes over modes:
the linear symbol is lam - (|k(m)|^2 - 1)^2, stiff because of the quartic
growth in |k|.  SHParams describes the system to the engine in etd.py, which
treats the symbol exactly through exponentials and phi functions and
integrates only the cubic term approximately (order 2 or 4 Runge-Kutta
exponential time differencing).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
# imported with the package, not on a run's first draw, so that no module
# loads inside a run's set-up
from numpy.random import default_rng

from . import diagnostics, etd
from .etd import LowerTri
from .hull import ActiveModeSet, HullField


@dataclass(frozen=True)
class SHParams:
    """The Swift-Hohenberg equation as an ETD system: diagonal L, N(u) = -u^3."""

    lam: float
    ncomp: ClassVar[int] = 1

    def __post_init__(self):
        if self.lam > 1.0:
            warnings.warn(
                "bifurcation parameter above 1 leaves the regime where the "
                "pattern amplitude estimates apply",
                stacklevel=3,  # past the dataclass __init__, to the line constructing it
            )

    def linear_block(self, active: ActiveModeSet) -> LowerTri:
        return LowerTri(sigma_array(active, self.lam)[None])

    def nonlinear(self, grids: np.ndarray, active: ActiveModeSet) -> np.ndarray:
        return -active.coefficients_from_grid(grids * grids * grids)

    def energy(self, coeffs: np.ndarray, linear: np.ndarray, nonlinear: np.ndarray) -> float:
        """0.5|(lap+1)u|^2 - 0.5*lam*|u|^2 + 0.25*mean(u^4), from L a and N(a).

        The quadratic part is -Re<a, L a>/2.  The quartic part is
        -Re<a, N(a)>/4 by Parseval, exactly: on a grid of G >= 4N+1 points
        per axis, as N(a)'s product grid is, the retained coefficients of u^3
        carry no aliasing, and the mean of u^4 pairs only retained modes of u
        with those of u^3.
        """
        return float(-0.5 * np.vdot(coeffs, linear).real
                     - 0.25 * np.vdot(coeffs, nonlinear).real)

    def config_keys(self) -> dict:
        return {"equation": "sh", "lam": self.lam}


def sigma_array(active: ActiveModeSet, lam: float) -> np.ndarray:
    return lam - (active.ksq - 1.0) ** 2


class SolverState(etd.EtdState):
    """One-component state; ``field`` views its coefficients."""

    @property
    def field(self) -> HullField:
        return HullField(self.active, self.coeffs[0])


def step(state: SolverState, terms=None) -> SolverState:
    """One ETDRK2/ETDRK4 step of the state's scheme and dt (see ``etd.step``)."""
    return etd.step(state, terms)


def integrate(
    state: SolverState,
    T: float,
    hooks=(),
    diag_every: int = 10,
    s: float = 3.0,
) -> tuple[SolverState, diagnostics.Trajectory]:
    """March to time T, recording diagnostics every diag_every steps (see ``etd.integrate``)."""
    return etd.integrate(state, T, step, hooks, diag_every, s)


def quasicrystal_ic(
    active: ActiveModeSet,
    lam: float,
    relative_amplitude: float = 0.5,
    perturbation: float = 0.0,
    seed: int = 0,
) -> HullField:
    """Symmetric pattern seeded on the generating wavevector orbit.

    Uniform real amplitude over the orbit of the first generator, scaled so
    the l2 norm is relative_amplitude * sqrt(lam) (inside the invariant
    ball).  A positive perturbation adds bounded seeded noise to every
    active mode, then resymmetrizes and rescales, so that all modes carry
    nonzero amplitude.
    """
    if not 0 < relative_amplitude <= 1:
        raise ValueError("relative amplitude must lie in (0, 1]")
    if perturbation < 0:
        raise ValueError("perturbation must be nonnegative")
    if lam <= 0:
        raise ValueError("pattern amplitude scale needs a positive parameter")
    target = relative_amplitude * np.sqrt(lam)
    coeffs = np.zeros(len(active), dtype=complex)
    orbit = active.k0_orbit()
    coeffs[orbit] = target / np.sqrt(len(orbit))
    if perturbation > 0:
        q = perturbation * np.sqrt(lam) / np.sqrt(2.0)
        rng = default_rng(seed)
        noise = rng.uniform(-q, q, len(active)) + 1j * rng.uniform(-q, q, len(active))
        # hermitian again: the orbit mean can leave a_{-m} a rounding off conj(a_m)
        coeffs = active.hermitian(active.symmetrize(active.hermitian(coeffs + noise)))
        with np.errstate(over="ignore"):  # refused below, with its cause
            norm = np.linalg.norm(coeffs)
        # outside the normal range the sum of squares has lost its digits (all
        # of them at lam = 5e-324) or overflowed, and the rescale would be void
        if not np.finfo(float).tiny <= norm * norm < np.inf:
            raise ValueError(f"lam = {lam!r} with perturbation = {perturbation!r} gives a "
                             "seed whose squared l2 norm leaves the normal float64 range")
        coeffs = coeffs * (target / norm)
    return HullField(active, coeffs)


def random_ic(active: ActiveModeSet, amplitude: float, seed: int = 0) -> HullField:
    """Hermitian Gaussian noise across all active modes, rescaled to amplitude."""
    rng = default_rng(seed)
    raw = rng.normal(size=len(active)) + 1j * rng.normal(size=len(active))
    coeffs = active.hermitian(raw)
    norm = np.linalg.norm(coeffs)
    if norm == 0 or amplitude == 0:
        return HullField(active, np.zeros(len(active), dtype=complex))
    return HullField(active, coeffs * (amplitude / norm))


def make_state(
    field: HullField,
    lam: float,
    scheme: str = "etdrk2",
    dt: float = 0.01,
    dealias: int = 2,
) -> SolverState:
    """A state at t = 0 holding its own copy of the field's coefficients.

    The state carries ``scheme`` and ``dt``, which ``etd.EtdState`` checks.
    ``dealias`` is accepted only as 2, the value older configs carry:
    products are always computed on the smallest alias-free grid.
    """
    if dealias != 2:
        raise ValueError(f"dealias = {dealias} is not supported; the only value is 2")
    return SolverState(
        field.active, field.coeffs[None].copy(), 0.0, SHParams(lam), scheme, dt,
    )


"""Constrained energy minimization by preconditioned normalized gradient descent.

Each iteration takes the functional gradient g (doubled convention), its
tangent part r = g - <u, g> u, and the Sobolev direction d = P^{-1} r with
P = shift - lap + V, projected back onto the tangent space of the unit sphere;
the state moves to u - tau * d and is renormalized (Bao & Du, SIAM J. Sci.
Comput. 25, 1674, 2004; Antoine, Levitt & Tang, J. Comput. Phys. 343, 92,
2017).  The shift puts the bottom of P's spectrum near 1 on every geometry, or,
for a bound seed, makes P the linear part of the Newton operator
-lap + V - <u, g>; either way P is positive definite on any grid that resolves
the oscillator length (`descent_shift`).  Because the trap is separable on
every grid, P^{-1} is applied exactly with banded solves.  A step that raises
the energy is rejected and retried at half the size.  Collapse is flagged by an
amplitude ceiling relative to the analytic profiles, since the physical blowup
lies outside the validity of the mean-field model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .energy import (EnergyBreakdown, TrapSpec, gradient, hamiltonian, quartic_coefficient,
                     trap_potential)
from .errors import DomainError, StepSizeError
from .grid import Geometry, Grid, TridiagonalFactor, Wavefunction

log = logging.getLogger(__name__)

# The fixed step tau along the preconditioned direction.  P^{-1} times the
# gradient is close to the identity at short wavelengths, so tau = 1 removes the
# stiff part of the error in one step on any grid spacing.  Each rejected step
# halves tau for the rest of the run, at most _MAX_HALVINGS times.
_STEP = 1.0
_MAX_HALVINGS = 30
_ENERGY_TOL = 1e-10     # relative energy change per iteration at convergence
_COLLAPSE_GUARD = 5.0   # amplitude ceiling over the analytic peak


@dataclass(frozen=True)
class DescentConfig:
    """Settings of `relax`."""

    max_iters: int = 200_000
    residual_tol: float = 1e-5   # L2 eigenresidual target

    def __post_init__(self):
        if not 0 < self.residual_tol < math.inf:
            raise DomainError(f"residual_tol must be positive and finite, "
                              f"got {self.residual_tol}")
        if not 1 <= self.max_iters < math.inf:
            raise DomainError(f"max_iters must be a finite number >= 1, got {self.max_iters}")


@dataclass
class GroundStateResult:
    wavefunction: Wavefunction
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    collapsed: bool
    residual: float
    energy_increases: int  # steps rejected for raising the energy beyond round-off


def reference_peak(grid: Grid, trap: TrapSpec, Q: float) -> float:
    """Peak amplitude of the analytic profile(s) seeding this configuration."""
    peaks = []
    if Q > 0 and grid.kind is not Geometry.SPHERICAL_RADIAL:
        # line states carry unit norm, sqrt(pi) times the paper-normalized profile
        line_norm = math.sqrt(math.pi) if grid.kind is Geometry.LINE else 1.0
        peaks.append(line_norm * analytic.soliton_amplitude(Q))
    if grid.kind is Geometry.SPHERICAL_RADIAL:
        peaks.append(math.pi ** -0.75)
    elif trap.lambda_z > 0:
        if grid.kind is Geometry.LINE:
            peaks.append((trap.lambda_z / math.pi) ** 0.25)
        else:
            peaks.append(trap.lambda_z ** 0.25 * math.pi ** -0.75)
    if not peaks:
        raise DomainError("no analytic reference profile for this configuration")
    return max(peaks)


def default_initial(grid: Grid, trap: TrapSpec, Q: float) -> Wavefunction:
    """Analytic seed: trap Gaussian when the axis is confined, soliton profile otherwise."""
    if grid.kind is Geometry.SPHERICAL_RADIAL:
        values = math.pi ** -0.75 * np.exp(-0.5 * grid.r ** 2)
    elif trap.lambda_z > 0:
        if grid.kind is Geometry.LINE:
            values = (trap.lambda_z / math.pi) ** 0.25 * np.exp(
                -0.5 * trap.lambda_z * grid.s ** 2)
        else:
            values = analytic.gaussian_ground_state(trap.lambda_z, grid.rho_coords(),
                                                    grid.s_coords())
    else:
        if Q <= 0:
            raise DomainError("need Q > 0 for a localized seed on a trap-free axis")
        if grid.kind is Geometry.LINE:
            # line states carry unit norm; the paper-normalized profile carries 1/pi
            values = math.sqrt(math.pi) * analytic.soliton_profile(Q, grid.s)
        else:
            values = analytic.composite_profile(Q, grid.rho_coords(), grid.s_coords())
    return Wavefunction(grid, values).normalized()


def descent_shift(grid: Grid, trap: TrapSpec, Q: float, lambda0: float,
                  energy0: float) -> float:
    """The shift of the preconditioner P = shift - lap + V that `relax` uses.

    lambda0 = <u, g> and energy0 = lambda0 + c<n, n> are the seed's doubled
    eigenvalue and energy.  The shift starts from 1 - e0, with e0 the harmonic
    zero-point energy of -lap + V: 2 + lambda_z on cylinders, 3 on spherical
    grids, lambda_z on line grids.  The discrete zero-point energy lies O(h^2)
    below e0 (2.93 at 16 radial nodes on [0, 6]), so the bottom of P lies near
    1.  When Q > 0 and energy0 lies below a proven floor of the spectrum of
    -lap + V (the bottom of the radial factor on cylinders, whose axial factor
    is >= 0; 0 elsewhere), the shift drops to -lambda0 if that is lower: P is
    then -lap + V - lambda0, the linear part of the Newton operator, positive
    definite because lambda0 < energy0 < floor <= the bottom of -lap + V.

    On a grid too coarse for the oscillator length (spherical dr ~ 1.8, or
    lambda_z * ds^2 ~ 1 on the axis) the discrete zero-point energy can fall
    more than 1 below e0, and P's bottom mode, which is close to the state
    and projected out of every direction, turns negative; the descent still
    converges there (tested).
    """
    if grid.kind is Geometry.SPHERICAL_RADIAL:
        e0 = 3.0
    else:
        e0 = trap.lambda_z + (2.0 if grid.kind is Geometry.CYLINDRICAL else 0.0)
    shift = 1.0 - e0
    floor = 0.0
    if grid.kind is Geometry.CYLINDRICAL:
        floor = float(grid.radial_modes(grid.rho ** 2)[0][0])
    if Q > 0 and energy0 < floor:
        shift = min(shift, -lambda0)
    return shift


class SobolevPreconditioner:
    """Exact inverse of P = shift - lap + V (doubled trap potential) by banded solves.

    Line and spherical grids need one tridiagonal solve.  On cylindrical grids
    the rho factor -lap_rho + rho^2 is diagonalized (`Grid.radial_modes`, once
    per grid), which leaves one s-line system per rho mode.  P is factored
    once; each solve is one gttrs call over all lines.  `relax` takes the
    shift from `descent_shift`; the operator -lap + V - 2 mu of the stationary
    branch at fixed mu is the shift -2 mu.
    """

    def __init__(self, grid: Grid, trap: TrapSpec, shift: float):
        self.to_modes = self.from_modes = None
        if grid.kind is Geometry.CYLINDRICAL:
            theta, self.to_modes, self.from_modes = grid.radial_modes(grid.rho ** 2)
            potential = theta[:, None] + (trap.lambda_z * grid.s) ** 2
        else:
            potential = trap_potential(grid, trap)
        # the one axis left: s after the rho modes, or the only one
        lo, di, up = grid.laplacian_diagonals("r" if grid.s is None else "s")
        self.factor = TridiagonalFactor(-lo, shift + potential - di, -up)

    def solve(self, rhs):
        """P^{-1} rhs for a field on the grid."""
        if self.to_modes is None:
            return self.factor.solve(rhs)
        return self.from_modes @ self.factor.solve(self.to_modes @ rhs, overwrite=True)


def relax(initial: Wavefunction, trap: TrapSpec, Q: float,
          cfg: DescentConfig = DescentConfig()) -> GroundStateResult:
    """Relax an initial state to the constrained minimizer (or detect collapse).

    Real seeds relax in real arithmetic, complex ones in complex; both run the
    same loop.  The trap potential is evaluated once per call.  Each iteration
    forms the density once, for the quartic energy and the amplitude ceiling,
    and takes every inner product as one dot product against the quadrature
    weights.

    Raises StepSizeError when the energy rises even after _MAX_HALVINGS
    halvings of the step.
    """
    if Q < 0:
        raise DomainError(f"Q must be non-negative, got {Q}")
    grid = initial.grid
    if not abs(initial.norm() - 1.0) <= 1e-8:
        raise DomainError("initial state must have norm 1; call .normalized() first")

    # real descent when the seed is real: the flow preserves reality
    v = initial.values
    if np.iscomplexobj(v) and np.max(np.abs(v.imag)) == 0.0:
        v = v.real
    v = v.copy()

    ceiling = math.inf
    if Q > 0:
        ceiling = _COLLAPSE_GUARD * reference_peak(grid, trap, Q)
    c = quartic_coefficient(grid.kind, Q)
    precond = None  # factored at the first step, with the seed's shift
    pot = trap_potential(grid, trap)
    w = grid.weights  # full field shape on every geometry

    def inner(a, b):
        return float(np.vdot(a, w * b).real)

    tau = _STEP
    rejected = 0
    v_prev = d = None
    energy_prev = math.inf
    converged = collapsed = False
    residual = math.inf
    iterations = 0

    while iterations < cfg.max_iters:
        iterations += 1
        g = gradient(v, grid, trap, Q, potential=pot)
        density = np.abs(v) ** 2
        vg = inner(v, g)
        energy = vg + c * inner(density, density)
        scale = max(abs(energy), 1.0)
        if not energy <= energy_prev + 1e-12 * scale:  # a rise, or a non-finite energy
            rejected += 1
            if v_prev is None or rejected > _MAX_HALVINGS:
                raise StepSizeError(f"the energy still rose at step size {tau:g} "
                                    f"after {rejected - 1} halvings")
            tau *= 0.5
        else:
            tangent = g - vg * v  # twice the eigenresidual g/2 - mu*u
            residual = 0.5 * math.sqrt(inner(tangent, tangent))
            if abs(energy - energy_prev) < _ENERGY_TOL * scale \
                    and residual < cfg.residual_tol:
                converged = True
                break
            if math.sqrt(density.max()) > ceiling:
                collapsed = True
                break
            if precond is None:
                precond = SobolevPreconditioner(
                    grid, trap, descent_shift(grid, trap, Q, vg, energy))
            d = precond.solve(tangent)
            d -= inner(v, d) * v
            v_prev, energy_prev = v, energy
        v = v_prev - tau * d
        v /= math.sqrt(inner(v, v))

    final = Wavefunction(grid, np.asarray(v, dtype=complex))
    breakdown = hamiltonian(final, trap, Q)
    log.debug("relax: Q=%g lambda_z=%g iters=%d converged=%s collapsed=%s residual=%.3e",
              Q, trap.lambda_z, iterations, converged, collapsed, residual)
    return GroundStateResult(
        wavefunction=final,
        energy=breakdown,
        iterations=iterations,
        converged=converged,
        collapsed=collapsed,
        residual=residual,
        energy_increases=rejected,
    )

"""Energy functional, its gradient, and the chemical potential on any geometry.

Components use the doubled convention E = int |grad u|^2 + V|u|^2 - (Q/2)|u|^4
(so the noninteracting isotropic Gaussian scores exactly 3); the chemical
potential is reported as the eigenvalue of the physical GPE operator,
mu = (kinetic + trap + external)/2 + interaction for unit-norm states.

Line-geometry states carry unit line norm, which rescales the cubic
coefficient to Q/(4*pi): the transverse average of the Gaussian mode
contributes 1/2 and the change to unit normalization another 1/(2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, require
from .grid import Geometry, Grid, Wavefunction


@dataclass(frozen=True)
class TrapSpec:
    """Dimensionless trap: transverse anisotropies are 1 by geometry, axial is lambda_z."""

    lambda_z: float = 0.0

    def __post_init__(self):
        require("lambda_z", self.lambda_z, ge=0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy components in units of hbar*omega (doubled-functional convention)."""

    kinetic: float
    trap: float
    interaction: float
    total: float
    chemical_potential: float
    external: float = 0.0


def quartic_coefficient(kind: Geometry, Q: float) -> float:
    """Coefficient c in the interaction term -c * int |u|^4 (doubled convention)."""
    require("Q", Q, ge=0)
    if kind is Geometry.LINE:
        return Q / (4.0 * math.pi)
    return 0.5 * Q


def trap_terms(grid: Grid, trap: TrapSpec):
    """(radial, axial) terms of the doubled trap potential, 1-D arrays in the
    order of `Grid.axis_sums` (None on an absent axis): the potential is their
    sum over the grid."""
    if grid.kind is Geometry.SPHERICAL_RADIAL and trap.lambda_z != 1.0:
        raise GridMismatchError(
            "spherical-radial geometry models the isotropic trap; lambda_z must be 1, "
            f"got {trap.lambda_z}"
        )
    return (None if grid.radial is None else grid.radial ** 2,
            None if grid.s is None else (trap.lambda_z * grid.s) ** 2)


def trap_potential(grid: Grid, trap: TrapSpec):
    """Doubled trap potential: rho^2 + lambda_z^2 s^2 (cylindrical), lambda_z^2 s^2
    (line), r^2 (spherical-radial, which requires isotropy)."""
    radial, axial = trap_terms(grid, trap)
    # the radial term down the rows plus the axial one along them
    rows = (0.0 if radial is None else radial[:, None]) + (0.0 if axial is None else axial)
    return rows.reshape(grid.shape)


def gradient(values, grid: Grid, trap: TrapSpec, Q: float, potential=None):
    """Functional gradient [-lap + V - 2c|u|^2] u (doubled convention).

    Halving it gives the physical GPE operator applied to u.  `potential`, if
    given, is `trap_potential(grid, trap)` evaluated once by a caller that
    applies the operator many times.
    """
    c = quartic_coefficient(grid.kind, Q)
    out = -grid.laplacian(values)
    pot = trap_potential(grid, trap) if potential is None else potential
    out += pot * values
    if Q != 0:
        out -= (2.0 * c) * np.abs(values) ** 2 * values
    return out


def hamiltonian(u: Wavefunction, trap: TrapSpec, Q: float, external=None) -> EnergyBreakdown:
    """Evaluate the energy components of a sampled state.

    `external` is an optional array of extra potential samples (physical
    convention); its contribution is reported separately and included in the
    total.
    """
    grid = u.grid
    c = quartic_coefficient(grid.kind, Q)
    density = u.density()
    weighted = grid.weights * density
    norm2 = float(weighted.sum())
    if norm2 == 0.0:
        return EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    quartic = float(np.vdot(weighted, density))
    del density  # one field fewer alive in the kinetic energy
    kinetic = grid.dirichlet_energy(u.values)
    # the trap is separable: each term against the density summed over the other axis
    trap_e = sum(float(term @ sums) for term, sums in
                 zip(trap_terms(grid, trap), grid.axis_sums(weighted)) if term is not None)
    interaction = -c * quartic
    ext_e = 0.0
    if external is not None:
        ext_e = 2.0 * float(np.vdot(weighted, grid.check(external, "external potential")))
    total = kinetic + trap_e + interaction + ext_e
    mu = (0.5 * (kinetic + trap_e + ext_e) + interaction) / norm2
    return EnergyBreakdown(kinetic=kinetic, trap=trap_e, interaction=interaction,
                           total=total, chemical_potential=mu, external=ext_e)

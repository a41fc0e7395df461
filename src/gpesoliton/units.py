"""Conversion between laboratory parameters and the dimensionless solver inputs.

Every solver module works in trap units: lengths in the radial oscillator
length a0, time in 1/omega_r, energies in hbar*omega_r.  The only interaction
parameter is Q = 8*pi*|a|*N/a0 for scattering length a < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedRegimeError, require

# CODATA 2018
HBAR = 1.054571817e-34           # J s
ATOMIC_MASS = 1.66053906660e-27  # kg

# 7Li: mass in u; |a| = 14.5 Angstrom for the attractive hyperfine state
LI7_MASS_U = 7.016003
LI7_SCATTERING_LENGTH = -14.5e-10  # m


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-frame trap and atom parameters."""

    scattering_length_a: float          # m, negative for attractive interactions
    atom_mass_m: float                  # kg
    radial_frequency_nu: float          # Hz; omega = 2*pi*nu
    particle_number_N: float

    def __post_init__(self):
        require("scattering_length_a", self.scattering_length_a)
        require("atom_mass_m", self.atom_mass_m, gt=0)
        require("radial_frequency_nu", self.radial_frequency_nu, gt=0)
        require("particle_number_N", self.particle_number_N, ge=0)


def oscillator_length(p: PhysicalParams) -> float:
    """Radial oscillator length a0 = sqrt(hbar/(m*omega)) in meters, omega = 2*pi*nu;
    DomainError unless a0 is a finite number > 0 (m*omega may leave the float range)."""
    m_omega = p.atom_mass_m * (2.0 * math.pi * p.radial_frequency_nu)
    a0 = math.sqrt(HBAR / m_omega) if m_omega else math.inf
    return require("oscillator length a0", a0, gt=0)


def q_from_n(p: PhysicalParams) -> float:
    """Dimensionless interaction strength Q = 8*pi*|a|*N/a0 (attractive only)."""
    if p.scattering_length_a >= 0:
        raise UnsupportedRegimeError(
            "scattering length must be negative (attractive condensates only), "
            f"got {p.scattering_length_a}"
        )
    return 8.0 * math.pi * abs(p.scattering_length_a) * p.particle_number_N / oscillator_length(p)


def n_from_q(Q: float, p: PhysicalParams) -> float:
    """Particle number producing interaction strength Q for the given trap/atom."""
    if p.scattering_length_a >= 0:
        raise UnsupportedRegimeError(
            "scattering length must be negative (attractive condensates only), "
            f"got {p.scattering_length_a}"
        )
    return require("Q", Q, ge=0) * oscillator_length(p) / (8.0 * math.pi * abs(p.scattering_length_a))


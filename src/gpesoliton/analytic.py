"""Closed-form reference profiles and the Gaussian variational surface.

The bright-soliton line profile, its width law, the trap/self-interaction
dominance ratio, the noninteracting Gaussian ground state, the factorized
sech x Gaussian 3-D profile, and the two-width Gaussian trial energy with
its critical interaction strength all live here.  Everything is a pure
function of scalars (vectorized over coordinates via numpy).

The trial energy is stationary on one branch: with p = 1 - w_rho^4, dE/dw_rho
= 0 gives Q / (4 sqrt(2) pi^{3/2}) = w_s p, and dE/dw_s = 0 gives
lambda_z^2 w_rho^2 w_s^4 + p w_s^2 = w_rho^2, so w_s^2 = 2 w_rho^2 / (p +
sqrt(p^2 + 4 lambda_z^2 w_rho^4)).  On 0 < w_rho < 1 that Q has one peak, the
fold, at the root of 64 lambda_z^2 v^3 = (1 - 3v)(1 + 5v)(1 - v)^2 in
v = w_rho^4 on (0, 1/3].  The fold's Q is the critical one; the branch points
with larger w_rho are local minima, those with smaller w_rho saddles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require

# prefactor of the attractive term in the two-width Gaussian trial energy
_GAUSS_QUARTIC = 1.0 / (4.0 * math.sqrt(2.0) * math.pi ** 1.5)


def soliton_amplitude(Q: float) -> float:
    """Peak amplitude sqrt(Q)/(4*pi) of the line soliton."""
    return math.sqrt(require("Q", Q, gt=0)) / (4.0 * math.pi)


def soliton_inverse_width(Q: float) -> float:
    """Inverse width b = Q/(8*pi) appearing in sech(b*s)."""
    return require("Q", Q, gt=0) / (8.0 * math.pi)


def soliton_phase_rate(Q: float) -> float:
    """Longitudinal binding rate b^2/2 = Q^2/(128*pi^2).

    The stationary line soliton rotates its phase at -b^2/2 (a bound state),
    so the full 3-D chemical potential is 1 - this rate.
    """
    b = soliton_inverse_width(Q)
    return 0.5 * b * b


def soliton_profile(Q: float, s):
    """Line soliton (sqrt(Q)/(4*pi)) * sech(Q*s/(8*pi)).

    Carries line norm integral |phi|^2 ds = 1/pi; multiplying by
    exp(-rho^2/2) gives the unit-norm 3-D composite profile.
    """
    A = soliton_amplitude(Q)
    b = soliton_inverse_width(Q)
    return A / np.cosh(b * np.asarray(s, dtype=float))


def soliton_width(Q: float) -> float:
    """Axial rms width 4*pi^2/(Q*sqrt(3)) of the line soliton."""
    return 4.0 * math.pi ** 2 / (require("Q", Q, gt=0) * math.sqrt(3.0))


def soliton_second_moment(Q: float) -> float:
    """Axial second moment <s^2> = 16*pi^4/(3*Q^2)."""
    return 16.0 * math.pi ** 4 / (3.0 * require("Q", Q, gt=0) ** 2)


def dominance_ratio(Q: float, rho, s):
    """Transverse trap energy over self-interaction, 16*pi^2*rho^2*e^{rho^2} / (Q^2 sech(b s))."""
    b = soliton_inverse_width(Q)
    rho = np.asarray(rho, dtype=float)
    s = np.asarray(s, dtype=float)
    return 16.0 * math.pi ** 2 * rho ** 2 * np.exp(rho ** 2) * np.cosh(b * s) / Q ** 2


def gaussian_ground_state(lambda_z: float, rho, s):
    """Noninteracting ground state lambda_z^{1/4} pi^{-3/4} exp(-rho^2/2 - lambda_z*s^2/2).

    The axial factor uses the trap anisotropy, which makes the state both the
    harmonic ground state for that anisotropy and unit-normalized.
    """
    require("lambda_z", lambda_z, gt=0)
    rho = np.asarray(rho, dtype=float)
    s = np.asarray(s, dtype=float)
    return lambda_z ** 0.25 * math.pi ** -0.75 * np.exp(-0.5 * rho ** 2 - 0.5 * lambda_z * s ** 2)


def composite_profile(Q: float, rho, s):
    """Factorized 3-D profile (sqrt(Q)/(4*pi)) sech(Q s/(8*pi)) exp(-rho^2/2); unit 3-D norm."""
    rho = np.asarray(rho, dtype=float)
    return soliton_profile(Q, s) * np.exp(-0.5 * rho ** 2)


# ---------------------------------------------------------------------------
# Gaussian variational surface


def variational_energy(Q: float, lambda_z: float, w_rho: float, w_s: float) -> float:
    """Trial energy of a normalized Gaussian with radial width w_rho and axial width w_s.

    Same doubled-functional convention as the energy module (the value for the
    noninteracting isotropic minimizer w_rho = w_s = 1 is 3, twice the
    Schroedinger energy 3/2).
    """
    require("w_rho", w_rho, gt=0)
    require("w_s", w_s, gt=0)
    require("Q", Q, ge=0)
    require("lambda_z", lambda_z, ge=0)
    return (
        1.0 / w_rho ** 2
        + 0.5 / w_s ** 2
        + w_rho ** 2
        + 0.5 * lambda_z ** 2 * w_s ** 2
        - _GAUSS_QUARTIC * Q / (w_rho ** 2 * w_s)
    )


def _fold(lambda_z) -> float:
    """p at the fold; the fold quartic's one root on (0, 1/3], polished by Newton steps."""
    quartic = np.poly1d([-15.0, 32.0 - 64.0 * lambda_z ** 2, -18.0, 0.0, 1.0])
    r = min(x.real for x in quartic.roots if x.imag == 0 and x.real > 0)
    for _ in range(2):  # np.roots alone is 2e-8 off at lambda_z = 1e6
        r -= quartic(r) / quartic.deriv()(r)
    return 1.0 - r


def variational_critical_q(lambda_z: float) -> float:
    """Largest Q for which the Gaussian trial energy keeps a finite-width local minimum."""
    require("lambda_z", lambda_z, ge=0)
    p = _fold(lambda_z)
    # the branch's w_s at the fold (module docstring)
    root = math.sqrt(p * p + 4.0 * lambda_z ** 2 * (1.0 - p))
    return math.sqrt(2.0 * math.sqrt(1.0 - p) / (p + root)) * p / _GAUSS_QUARTIC

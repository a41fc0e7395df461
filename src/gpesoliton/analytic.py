"""Closed-form reference profiles and the Gaussian variational surface.

The bright-soliton line profile, its width law, the trap/self-interaction
dominance ratio, the noninteracting Gaussian ground state, the factorized
sech x Gaussian 3-D profile, and the two-width Gaussian trial energy with
its critical interaction strength all live here.  Everything is a pure
function of scalars (vectorized over coordinates via numpy).
scipy.optimize is imported in `variational_minimum`, its only user, to keep it out of CLI startup.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# prefactor of the attractive term in the two-width Gaussian trial energy
_GAUSS_QUARTIC = 1.0 / (4.0 * math.sqrt(2.0) * math.pi ** 1.5)


def _require_positive_q(Q):
    if Q <= 0:
        raise DomainError(f"Q must be positive, got {Q}")


def soliton_amplitude(Q: float) -> float:
    """Peak amplitude sqrt(Q)/(4*pi) of the line soliton."""
    _require_positive_q(Q)
    return math.sqrt(Q) / (4.0 * math.pi)


def soliton_inverse_width(Q: float) -> float:
    """Inverse width b = Q/(8*pi) appearing in sech(b*s)."""
    _require_positive_q(Q)
    return Q / (8.0 * math.pi)


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
    _require_positive_q(Q)
    return 4.0 * math.pi ** 2 / (Q * math.sqrt(3.0))


def soliton_second_moment(Q: float) -> float:
    """Axial second moment <s^2> = 16*pi^4/(3*Q^2)."""
    _require_positive_q(Q)
    return 16.0 * math.pi ** 4 / (3.0 * Q ** 2)


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
    if lambda_z <= 0:
        raise DomainError(f"lambda_z must be positive, got {lambda_z}")
    rho = np.asarray(rho, dtype=float)
    s = np.asarray(s, dtype=float)
    return lambda_z ** 0.25 * math.pi ** -0.75 * np.exp(-0.5 * rho ** 2 - 0.5 * lambda_z * s ** 2)


def gaussian_chemical_potential(lambda_z: float) -> float:
    """Exact eigenvalue 1 + lambda_z/2 of the noninteracting ground state."""
    if lambda_z < 0:
        raise DomainError(f"lambda_z must be non-negative, got {lambda_z}")
    return 1.0 + 0.5 * lambda_z


def composite_profile(Q: float, rho, s):
    """Factorized 3-D profile (sqrt(Q)/(4*pi)) sech(Q s/(8*pi)) exp(-rho^2/2); unit 3-D norm."""
    rho = np.asarray(rho, dtype=float)
    return soliton_profile(Q, s) * np.exp(-0.5 * rho ** 2)


def composite_chemical_potential(Q: float) -> float:
    """Approximate 3-D eigenvalue 1 - Q^2/(128*pi^2) of the composite profile.

    The transverse oscillator contributes +1; the axial soliton is a bound
    state and lowers the eigenvalue by its binding rate.
    """
    return 1.0 - soliton_phase_rate(Q)


# ---------------------------------------------------------------------------
# Gaussian variational surface


def variational_energy(Q: float, lambda_z: float, w_rho: float, w_s: float) -> float:
    """Trial energy of a normalized Gaussian with radial width w_rho and axial width w_s.

    Same doubled-functional convention as the energy module (the value for the
    noninteracting isotropic minimizer w_rho = w_s = 1 is 3, twice the
    Schroedinger energy 3/2).
    """
    if w_rho <= 0 or w_s <= 0:
        raise DomainError(f"widths must be positive, got ({w_rho}, {w_s})")
    if Q < 0:
        raise DomainError(f"Q must be non-negative, got {Q}")
    if lambda_z < 0:
        raise DomainError(f"lambda_z must be non-negative, got {lambda_z}")
    return (
        1.0 / w_rho ** 2
        + 0.5 / w_s ** 2
        + w_rho ** 2
        + 0.5 * lambda_z ** 2 * w_s ** 2
        - _GAUSS_QUARTIC * Q / (w_rho ** 2 * w_s)
    )


def _variational_energy_log(x, Q, lambda_z):
    # energy and gradient in log-width coordinates (keeps widths positive)
    wr, ws = math.exp(x[0]), math.exp(x[1])
    quartic = _GAUSS_QUARTIC * Q / (wr ** 2 * ws)
    e = 1.0 / wr ** 2 + 0.5 / ws ** 2 + wr ** 2 + 0.5 * lambda_z ** 2 * ws ** 2 - quartic
    de_dwr = -2.0 / wr ** 3 + 2.0 * wr + 2.0 * quartic / wr
    de_dws = -1.0 / ws ** 3 + lambda_z ** 2 * ws + quartic / ws
    return e, np.array([de_dwr * wr, de_dws * ws])


def variational_minimum(
    Q: float, lambda_z: float, start: tuple[float, float] | None = None
) -> tuple[float, float] | None:
    """Local minimizer (w_rho, w_s) of the trial energy, or None if descent collapses.

    Descent starts from the noninteracting minimizer (for lambda_z > 0) or from
    the axial width balancing dispersion against attraction (for lambda_z = 0).
    A run toward w_rho -> 0 or an indefinite stationary point counts as
    "no minimum".
    """
    if Q < 0 or lambda_z < 0:
        raise DomainError("Q and lambda_z must be non-negative")
    if start is None:
        if lambda_z > 0:
            start = (1.0, lambda_z ** -0.5)
        else:
            if Q == 0:
                return None  # axial energy has no finite minimizer without trap or attraction
            start = (1.0, max(2.0, 1.0 / (_GAUSS_QUARTIC * Q)))
    # deferred: scipy.optimize is slow to import, and only this function uses it
    from scipy.optimize import minimize

    x0 = np.log(np.asarray(start, dtype=float))
    bounds = [(-12.0, 30.0), (-12.0, 30.0)]
    res = minimize(
        _variational_energy_log,
        x0,
        args=(Q, lambda_z),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12},
    )
    wr, ws = math.exp(res.x[0]), math.exp(res.x[1])
    if res.x[0] <= bounds[0][0] + 1e-9 or res.x[1] <= bounds[1][0] + 1e-9:
        return None  # hit the collapse channel
    grad = _variational_energy_log(res.x, Q, lambda_z)[1]
    if np.max(np.abs(grad)) > 1e-6:
        return None  # no interior stationary point reached
    # positive-definite Hessian check (finite differences in log coordinates)
    h = 1e-5
    hess = np.empty((2, 2))
    for k in range(2):
        xp = res.x.copy()
        xp[k] += h
        xm = res.x.copy()
        xm[k] -= h
        hess[:, k] = (_variational_energy_log(xp, Q, lambda_z)[1]
                      - _variational_energy_log(xm, Q, lambda_z)[1]) / (2 * h)
    hess = 0.5 * (hess + hess.T)
    if np.min(np.linalg.eigvalsh(hess)) <= 0:
        return None
    return wr, ws


def variational_critical_q(
    lambda_z: float,
    bracket: tuple[float, float] = (0.5, 40.0),
    tol: float = 0.01,
) -> float:
    """Largest Q for which the Gaussian trial energy keeps a finite-width local minimum.

    Bisection on Q; each probe re-runs the bounded descent, warm-started from
    the last surviving minimizer.
    """
    if lambda_z < 0:
        raise DomainError(f"lambda_z must be non-negative, got {lambda_z}")
    q_lo, q_hi = bracket
    start = variational_minimum(q_lo, lambda_z)
    if start is None:
        raise DomainError(f"no variational minimum at bracket start Q = {q_lo}")
    if variational_minimum(q_hi, lambda_z, start=start) is not None:
        raise DomainError(f"variational minimum persists at bracket end Q = {q_hi}")
    while q_hi - q_lo > tol:
        q_mid = 0.5 * (q_lo + q_hi)
        found = variational_minimum(q_mid, lambda_z, start=start)
        if found is None:
            q_hi = q_mid
        else:
            q_lo = q_mid
            start = found
    return 0.5 * (q_lo + q_hi)

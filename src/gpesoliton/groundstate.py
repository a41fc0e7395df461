"""Constrained energy minimization by preconditioned Riemannian conjugate gradients.

Each iteration takes the functional gradient g (doubled convention), its
tangent part r = g - <u, g> u, and the Sobolev gradient y = P^{-1} r with
P = shift - lap + V.  The search direction d is y plus a Polak-Ribiere+
multiple of the last direction, projected onto the tangent space of the unit
sphere; where that sum would not descend, it restarts from y, or from r where
P is not positive on r.  The state moves along the normalized ray
(u - tau d)/|u - tau d| to the first minimum of the energy on it (`ray_step`):
the energy there is a rational function of tau whose coefficients are a few
weighted sums, so the step needs no extra Laplacian and no extra solve
(Danaila & Protas, SIAM J. Sci. Comput. 39, B1102, 2017; Antoine, Levitt &
Tang, J. Comput. Phys. 343, 92, 2017).  The first minimum, never a lower one
further out, keeps a descent below the threshold from jumping the barrier
into the collapsed basin.

The shift puts the bottom of P's spectrum near 1 on every geometry, or, for a
bound seed, makes P the linear part of the Newton operator -lap + V - <u, g>;
either way P is positive definite on any grid that resolves the oscillator
length (`descent_shift`).  Because the trap is separable on every grid, P^{-1}
is applied exactly with banded solves.  Collapse is flagged by an amplitude
ceiling relative to the analytic profiles, since the physical blowup lies
outside the validity of the mean-field model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .energy import (EnergyBreakdown, TrapSpec, gradient, hamiltonian, quartic_coefficient,
                     trap_potential, trap_terms)
from .errors import BlowupError, require
from .grid import Geometry, Grid, TridiagonalFactor, Wavefunction

log = logging.getLogger(__name__)

_COLLAPSE_GUARD = 5.0   # amplitude ceiling over the analytic peak


@dataclass(frozen=True)
class DescentConfig:
    """Settings of `relax`."""

    max_iters: int = 200_000
    residual_tol: float = 1e-5   # L2 eigenresidual target

    def __post_init__(self):
        require("residual_tol", self.residual_tol, gt=0)
        require("max_iters", self.max_iters, ge=1, integer=True)


@dataclass
class GroundStateResult:
    wavefunction: Wavefunction
    energy: EnergyBreakdown
    iterations: int
    converged: bool
    collapsed: bool
    residual: float


def analytic_state(grid: Grid, trap: TrapSpec, Q: float, radial=None, s=None):
    """The analytic state, unnormalized: the trap Gaussian on a confined s axis,
    the sech x Gaussian soliton (Q > 0) on a free one, each x sqrt(pi) on line grids
    (unit line norm), and the isotropic Gaussian on spherical grids.  A field on
    the grid's nodes, or its values at `radial` and `s` (an axis the grid lacks
    is ignored)."""
    if radial is None and s is None:
        radial = None if grid.radial is None else grid.radial[:, None]
        return analytic_state(grid, trap, Q, radial, grid.s).reshape(grid.shape)
    if grid.s is None:
        return analytic.gaussian_ground_state(1.0, radial, 0.0)
    if trap.lambda_z > 0 and grid.radial is None:
        return (trap.lambda_z / math.pi) ** 0.25 * np.exp(-0.5 * trap.lambda_z * s ** 2)
    if trap.lambda_z > 0:
        return analytic.gaussian_ground_state(trap.lambda_z, radial, s)
    if grid.radial is None:
        return math.sqrt(math.pi) * analytic.soliton_profile(Q, s)
    return analytic.composite_profile(Q, radial, s)


def reference_peak(grid: Grid, trap: TrapSpec, Q: float) -> float:
    """Peak amplitude of the analytic state, or of the soliton where a trapped s
    axis holds a taller one: their values at the origin."""
    peak = float(analytic_state(grid, trap, Q, 0.0, 0.0))
    if Q > 0 and grid.s is not None:
        peak = max(peak, float(analytic_state(grid, TrapSpec(0.0), Q, 0.0, 0.0)))
    return peak


def default_initial(grid: Grid, trap: TrapSpec, Q: float) -> Wavefunction:
    """The analytic state (`analytic_state`), normalized on the grid."""
    return Wavefunction(grid, analytic_state(grid, trap, Q)).normalized()


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
    e0 = trap.lambda_z + (0.0 if grid.kind is Geometry.LINE else 2.0)  # the sphere's lambda_z is 1
    shift = 1.0 - e0
    floor = 0.0
    if grid.kind is Geometry.CYLINDRICAL:
        floor = float(grid.radial_modes[0][0])
    if Q > 0 and energy0 < floor:
        shift = min(shift, -lambda0)
    return shift


class SobolevPreconditioner:
    """Exact inverse of P = shift - lap + V (doubled trap potential) by banded solves.

    Line and spherical grids need one tridiagonal solve.  On cylindrical grids
    the rho factor -lap_rho + rho^2 is diagonalized (`Grid.radial_modes`, once
    per grid, the basis of the propagator's radial step too), which leaves one
    s-line system per rho mode.  P is factored once; each solve is one gttrs
    call over all lines.  `relax` takes the shift from `descent_shift`; the
    operator -lap + V - 2 mu of the stationary branch at fixed mu is the shift
    -2 mu.
    """

    def __init__(self, grid: Grid, trap: TrapSpec, shift: float):
        self.to_modes = self.from_modes = None
        radial, axial = trap_terms(grid, trap)
        if grid.kind is Geometry.CYLINDRICAL:
            theta, self.to_modes, self.from_modes = grid.radial_modes
            potential = theta[:, None] + axial
        else:
            potential = axial if radial is None else radial
        # the one axis left: s after the rho modes, or the only one
        lo, di, up = grid.laplacian_diagonals("r" if grid.s is None else "s")
        self.factor = TridiagonalFactor(-lo, shift + potential - di, -up)

    def solve(self, rhs):
        """P^{-1} rhs for a field on the grid."""
        if self.to_modes is None:
            return self.factor.solve(rhs)
        return self.from_modes @ self.factor.solve(self.to_modes @ rhs, overwrite=True)


def _polyval(p, t):
    """p[0] + p[1] t + p[2] t^2 + ... by Horner's rule."""
    acc = 0.0
    for coef in reversed(p):
        acc = acc * t + coef
    return acc


def _illinois(p, a, b, fa, fb):
    """The root of the polynomial p between a and b, where fa = p(a) and
    fb = p(b) differ in sign: regula falsi that halves a stale end's value,
    until a step moves the estimate by less than 1e-12 of itself."""
    for _ in range(100):
        t = b - fb * (b - a) / (fb - fa)
        ft = _polyval(p, t)
        if ft * fb < 0:
            a, fa = b, fb
        else:
            fa *= 0.5
        converged = abs(t - b) <= 1e-12 * abs(t)
        b, fb = t, ft
        if converged or ft == 0.0:
            break
    return b


def _sign_changes(p, lo, hi):
    """Sorted points in (lo, hi) where the polynomial p changes sign.

    The sign changes of p' cut (lo, hi) into pieces on which p is monotone, so
    each piece holds at most one root of p.
    """
    if len(p) < 2:
        return []
    ends = [lo, *_sign_changes([k * p[k] for k in range(1, len(p))], lo, hi), hi]
    roots, f_b = [], _polyval(p, lo)
    for a, b in zip(ends, ends[1:]):
        f_a, f_b = f_b, _polyval(p, b)
        if f_a * f_b < 0:
            roots.append(_illinois(p, a, b, f_a, f_b))
    return roots


def ray_step(quadratic, quartic, dd, tau0=1.0):
    """The first local minimum tau > 0 of E(tau) = q(tau)/n^2 - m(tau)/n^4.

    q and m are the polynomials with the ascending coefficients `quadratic`
    (3) and `quartic` (5), and n^2 = 1 + dd tau^2: the energy along the
    normalized ray (u - tau d)/|u - tau d| with <u, d> = 0, |u| = 1 and
    dd = <d, d>.  E' has the sign of a quartic p (the tau^5 terms cancel)
    that must be negative at 0, and the step is its first positive root.

    Doubling from tau0 brackets a root in [0, tau], or stops where the ray
    has turned onto -d to double precision.  One sign change among p's
    Bernstein coefficients on that bracket proves the root unique, and
    Illinois steps refine it.  Otherwise tau = tau0 x/(1 - x) maps the whole
    ray onto 0 < x < 1, where p times (1 - x)^4 is a quartic in x, and its
    first root is isolated from any further ones, so a step never passes a
    barrier however close the next minimum lies.  Where E falls on the whole
    ray, the step ends where doubling stopped.
    """
    q0, q1, q2 = map(float, quadratic)  # Python floats: numpy scalars are slower
    m0, m1, m2, m3, m4 = map(float, quartic)
    dd = float(dd)
    e = q2 - dd * q0
    slope = (q1 - m1, 2.0 * (e - m2) + 4.0 * dd * m0, 3.0 * (dd * m1 - m3),
             2.0 * dd * (e + m2) - 4.0 * m4, dd * (m3 - dd * q1))
    tau = tau0
    while _polyval(slope, tau) < 0 and dd * tau * tau < 1e32:
        tau *= 2.0
    a0, a1, a2, a3, a4 = a = [coef * tau ** k for k, coef in enumerate(slope)]  # p(tau x)
    bernstein = (a0, a0 + a1 / 4, a0 + a1 / 2 + a2 / 6, a0 + 0.75 * a1 + a2 / 2 + a3 / 4,
                 a0 + a1 + a2 + a3 + a4)
    changes = sum((x < 0) != (y < 0) for x, y in zip(bernstein, bernstein[1:]))
    if changes == 1:
        return tau * _illinois(a, 0.0, 1.0, a0, bernstein[4])
    if changes == 0:
        return tau
    mapped = [0.0] * 5  # sum over k of slope[k] (tau0 x)^k (1 - x)^(4 - k)
    for k, coef in enumerate(slope):
        coef *= tau0 ** k
        for j in range(5 - k):
            mapped[k + j] += coef * (-1) ** j * math.comb(4 - k, j)
    roots = _sign_changes(mapped, 0.0, 1.0)
    return tau0 * roots[0] / (1.0 - roots[0]) if roots else tau


def relax(initial: Wavefunction, trap: TrapSpec, Q: float,
          cfg: DescentConfig = DescentConfig()) -> GroundStateResult:
    """Relax an initial state to the constrained minimizer (or detect collapse).

    Real seeds relax in real arithmetic, complex ones in complex; both run the
    same loop, and the result holds the field relaxed.  The trap potential is
    evaluated once per call.  Each iteration applies the Laplacian once (in the
    gradient) and P^{-1} once, forms the density once, for the quartic energy
    and the amplitude ceiling, and takes the line search's seven sums as dot
    products of plain fields with fields weighted once.  No step raises the
    energy along its ray, so none is rejected or retried.

    Raises BlowupError as soon as the energy is not finite.
    """
    grid = initial.grid
    initial.require_unit_norm()

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
    # Re(conj(a) b), pointwise
    re_mul = (lambda a, b: (a.conj() * b).real) if np.iscomplexobj(v) else np.multiply

    def inner(a, b):
        return float(np.vdot(a, w * b).real)

    w_pot = w * pot

    tau = 1.0
    d = wr_prev = ry_prev = None
    converged = collapsed = False
    residual = math.inf
    iterations = 0

    while iterations < cfg.max_iters:
        iterations += 1
        g = gradient(v, grid, trap, Q, potential=pot)
        density = np.abs(v) ** 2
        wa = w * density
        vg = inner(v, g)
        quartic = float(np.vdot(wa, density))
        energy = vg + c * quartic
        if not math.isfinite(energy):
            raise BlowupError(f"non-finite energy at iteration {iterations}")
        r = g
        r -= vg * v  # the tangent gradient, twice the eigenresidual g/2 - mu*u
        wr = w * r
        rr = float(np.vdot(wr, r).real)
        residual = 0.5 * math.sqrt(rr)
        if residual < cfg.residual_tol:
            converged = True
            break
        if math.sqrt(density.max()) > ceiling:
            collapsed = True
            break
        if precond is None:
            precond = SobolevPreconditioner(
                grid, trap, descent_shift(grid, trap, Q, vg, energy))
        y = precond.solve(r)
        ry = float(np.vdot(wr, y).real)
        # Polak-Ribiere+, restarted where the sum would not descend: from y, or
        # from r itself where P is not positive on r (an under-resolved grid)
        beta = 0.0 if d is None else max(0.0, (ry - float(np.vdot(wr_prev, y).real))
                                         / ry_prev)
        d = y + beta * d if beta > 0 else y
        dr = float(np.vdot(wr, d).real)
        if not dr > 0:
            d, dr = (y, ry) if ry > 0 else (r.copy(), rr)
        d -= inner(v, d) * v
        wr_prev, ry_prev = wr, ry

        # the energy along the ray: (a0 - 2 a1 tau + a2 tau^2)/n^2 - c N4(tau)/n^4
        # with N4 = int |u - tau d|^4, from the weighted sums of C against 1, A,
        # V, B and C and of B against A and B, where A = |u|^2, B = Re(conj(u) d)
        # and C = |d|^2
        cross, d_sq = re_mul(v, d), re_mul(d, d)
        wb, wc = w * cross, w * d_sq
        dd, ac, vc, bc, cc = (float(np.vdot(x, d_sq)) for x in (w, wa, w_pot, wb, wc))
        ab, bb = float(np.vdot(wa, cross)), float(np.vdot(wb, cross))
        a0 = vg + 2.0 * c * quartic  # <u, (-lap + V) u>
        a1 = dr + 2.0 * c * ab       # <d, (-lap + V) u>
        a2 = grid.dirichlet_energy(d) + vc
        n4 = (quartic, -4.0 * ab, 4.0 * bb + 2.0 * ac, -4.0 * bc, cc)
        tau = ray_step((a0, -2.0 * a1, a2), [c * n for n in n4], dd, tau)
        v = v - tau * d
        v /= math.sqrt(inner(v, v))

    final = Wavefunction(grid, v)
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
    )

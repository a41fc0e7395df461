"""Real-time propagation by Strang splitting: linear steps of the trap operator
-lap/2 + V/2, the one `relax` preconditions with, between half-step kicks.

The linear step holds the whole trap.  Along s it is the Cayley (Crank-Nicolson)
factor of K_s = (-lap_s + lambda_z^2 s^2)/2, one tridiagonal system for every
line and radial mode, LU-factored once per dt and applied as
(1 + zK)^{-1}(1 - zK) = 2(1 + zK)^{-1} - 1: one solve for all lines per step.
On cylindrical grids K_rho = (-lap_rho + rho^2)/2 is diagonal in the grid's one
radial eigenbasis (`Grid.radial_modes`, shared with `relax`), so its step is
exact and commutes with the s step: the two rho half-steps of the splitting
(half rho, full s, half rho) are one diagonal factor.  Both factors are
unitary, so the discrete norm is conserved to round-off, and a discrete trap
eigenstate (Q = 0) only turns its phase.

A step is a half-step kick, the linear step and a half-step kick.  A kick
multiplies by the nonlinear phase exp(i*phi), phi = dt/2*c|v|^2, and, where
there is one, by exp(-i*dt/2*V_ext) * damping for an external potential (its
samples (V_ext, dV_ext/ds) on the grid) and the sponge, one factor built once
per dt.  phi is small (~4e-4 for a Q = 5 soliton at the default dt), so its cos
and sin are Taylor polynomials (three terms each there), evaluated on contiguous
real buffers to below half an ulp; past |phi| ~ 0.1 the kick falls back to
np.cos and np.sin.  Kicks and linear steps work in place on the state and two
scratch fields held by the propagator, so a step allocates no grid-sized array.

`PropagationConfig` owns the time lattice: t_final must be a whole number of
steps, and a time within 1e-9 dt of step k is step k.  `propagate` returns
(records, snapshot states, final state, time error) from one propagator.
Records keep one cadence (tau = 0, every `observe_every` steps, the final
step).  A snapshot between steps k and k + 1 is the state after step k taken
one step of the remainder further, inside the run.

The default step dt = 1e-2, recorded every step (tau = 0.01), keeps the time
error at most 1e-3 of the lattice error: up to tau = 1 a boosted soliton's
centroid moves off its dt/8 path by 3.0e-4 (v = 0.4) to 4.6e-4 (v = 0.6) of
the lattice deficit 2 (v ds)^2/6 v tau on a 96 x 384 cylinder.  Each run
estimates its own time error by step doubling.

Optional sponge layers of width `sponge_width`, at most half the axial extent,
damp outgoing radiation near the axial edges at the rate SPONGE_STRENGTH; they
absorb norm on purpose, so runs with a sponge skip the norm-drift guard.

`displace` (its natural cubic spline) and the Ehrenfest frequency fit are
numpy and `TridiagonalFactor` only: importing scipy.interpolate or
scipy.optimize would take longer than a short trapped run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import TrapSpec, hamiltonian, quartic_coefficient, trap_terms
from .errors import BlowupError, DomainError, StepSizeError, require
from .grid import Grid, TridiagonalFactor, Wavefunction
from .observables import moments

NORM_DRIFT_LIMIT = 1e-6
SPONGE_STRENGTH = 5.0  # damping rate at the outer edge of a sponge layer
MAX_NORM_LOSS = 1e-8  # the share of the norm that `displace` may carry off the grid


def _step(name, t, dt):
    """t / dt, as the int k when t is k * dt to within 1e-9 dt; DomainError naming
    `name` and dt when t / dt is not a finite number."""
    k = round(require(f"{name} / dt", t / dt))
    return k if abs(t - k * dt) <= 1e-9 * dt else t / dt


@dataclass(frozen=True)
class PropagationConfig:
    t_final: float  # a whole number of steps
    dt: float = 1e-2  # time error <= 1e-3 of the lattice error (module docstring)
    observe_every: int = 1  # a record every tau = 0.01 at the default dt
    sponge_width: float = 0.0  # absolute width of each absorbing edge layer; 0 for none

    def __post_init__(self):
        require("dt", self.dt, gt=0)
        require("t_final", self.t_final, ge=0)
        k = _step("t_final", self.t_final, self.dt)
        if not isinstance(k, int):
            raise DomainError(f"t_final {self.t_final:g} is off the dt = {self.dt:g} lattice; "
                              f"the nearest lattice times are {math.floor(k) * self.dt:.12g} "
                              f"and {math.ceil(k) * self.dt:.12g}")
        require("observe_every", self.observe_every, ge=1, integer=True)
        require("sponge_width", self.sponge_width, ge=0)


def _sponge_mask(grid: Grid, width: float):
    s = grid.s_coords()
    lo, hi = s[0] - 0.5 * grid.ds, s[-1] + 0.5 * grid.ds
    if 2.0 * width > hi - lo:
        raise DomainError(f"sponge layers of width {width:g} overlap in the axial extent "
                          f"{hi - lo:g}")
    left = np.clip((lo + width - s) / width, 0.0, 1.0)
    right = np.clip((s - (hi - width)) / width, 0.0, 1.0)
    return left ** 2 + right ** 2  # along s, so it broadcasts over the rho rows


# Taylor coefficients of cos(x) and of sin(x)/x in powers of x^2, to degrees 8 and 9:
# the first term left out is below half an ulp of the result for |x| <= 0.107
_COS_TAYLOR = tuple((-1) ** k / math.factorial(2 * k) for k in range(5))
_SINC_TAYLOR = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(5))


def _taylor_terms(x_max):
    """The fewest Taylor terms (two or more) whose truncation stays below 2^-54 for
    |x| <= x_max, or None when the tables above are too short (or x_max is not finite)."""
    return next((k for k in range(2, len(_COS_TAYLOR) + 1)
                 if x_max ** (2 * k) / math.factorial(2 * k) <= 2.0 ** -54), None)


class _Propagator:
    def __init__(self, grid: Grid, trap: TrapSpec, Q: float, external, cfg: PropagationConfig):
        grid.s_coords()  # DomainError on a grid with no s axis to propagate along
        self.grid = grid
        self.trap = trap
        self.Q = Q
        # half of energy.gradient is the physical operator -lap/2 + V/2 - c|u|^2,
        # so the cubic coefficient is c itself; the flow then conserves
        # hamiltonian(...).total
        self.c3 = quartic_coefficient(grid.kind, Q)
        # V and dV/ds of an external potential, or None
        self.ext_samples, self.ext_grad = (None, None) if external is None else (
            grid.check(f, "external potential") for f in external)
        self.sponge = None
        if cfg.sponge_width > 0:
            self.sponge = SPONGE_STRENGTH * _sponge_mask(grid, cfg.sponge_width)
        self.axial = trap_terms(grid, trap)[1]
        self.to_modes = None
        if grid.rho is not None:
            self.theta, self.to_modes, self.from_modes = grid.radial_modes
        # two fields of scratch for the kick and the linear step, and the kick's
        # four real fields as the contiguous halves of their float views
        self._a = np.empty(grid.shape, complex)
        self._b = np.empty(grid.shape, complex)
        self._a_halves = self._a.view(np.float64).reshape(2, *grid.shape)
        self._b_halves = self._b.view(np.float64).reshape(2, *grid.shape)
        self._by_dt = {}
        self._use(cfg.dt)

    def _use(self, dt):
        """Make the factors and kick of steps of dt current; each dt's are built once."""
        if dt not in self._by_dt:
            # bands of 1 + i*dt/2*K_s, K_s = (-lap_s + lambda_z^2 s^2)/2: the Cayley denominator
            lo, di, up = self.grid.laplacian_diagonals("s")
            z = 0.25j * dt
            kin_s = TridiagonalFactor(-z * lo, 1.0 + z * (self.axial - di), -z * up)
            # exp(-i*dt*K_rho) for K_rho = (-lap_rho + rho^2)/2, exact in its eigenbasis
            rho_factor = (None if self.to_modes is None
                          else np.exp(-0.5j * dt * self.theta)[:, None])
            # the half-step kick as (h*cubic, exp(-i*h*V_ext) * damping), h = dt/2, with a
            # factor that broadcasts against the field, or None where it is exactly 1
            damping = 1.0 if self.sponge is None else np.sqrt(np.exp(-dt * self.sponge))
            if self.ext_samples is not None:
                damping = np.exp(-0.5j * dt * self.ext_samples) * damping
            half_phase = (0.5 * dt * self.c3, damping if np.any(damping != 1.0) else None)
            self._by_dt[dt] = kin_s, rho_factor, half_phase
        self.kin_s, self.rho_factor, self.half_phase = self._by_dt[dt]

    def _kick(self, v):
        """Multiply v in place by exp(i*phi) * exp(-i*h*V_ext) * damping, phi = h*cubic*|v|^2."""
        scale, potential = self.half_phase
        phi, phi2 = self._a_halves
        np.abs(v, out=phi)
        np.square(phi, out=phi)
        phi *= scale
        cos, sin = self._b_halves
        terms = _taylor_terms(float(phi.max()))
        if terms is None:
            np.cos(phi, out=cos)
            np.sin(phi, out=sin)
        else:
            # Horner in phi^2; cheaper than np.cos and np.sin, and as exact here
            np.square(phi, out=phi2)
            for poly, coefs in ((cos, _COS_TAYLOR), (sin, _SINC_TAYLOR)):
                np.multiply(phi2, coefs[terms - 1], out=poly)
                for c in coefs[terms - 2:0:-1]:
                    poly += c
                    poly *= phi2
                poly += coefs[0]
            sin *= phi
        factor = self._a  # phi and phi2 are spent
        factor.real = cos
        factor.imag = sin
        if potential is not None:
            factor *= potential
        v *= factor

    def _kinetic(self, v):
        """One linear step of -lap/2 + V/2, in place; returns v."""
        b = self._b
        if self.to_modes is None:
            np.copyto(b, v)
            x = self.kin_s.solve(b, overwrite=True)
            x *= 2.0
            return np.subtract(x, v, out=v)
        w = self._a
        np.matmul(self.to_modes, v.view(np.float64), out=w.view(np.float64))
        np.copyto(b, w)
        x = self.kin_s.solve(b, overwrite=True)  # one right-hand side per rho mode
        x *= 2.0
        x -= w
        x *= self.rho_factor
        np.matmul(self.from_modes, x.view(np.float64), out=v.view(np.float64))
        return v

    def step(self, v, dt):
        """One Strang step of dt of v, a C-contiguous complex field, in place."""
        self._use(dt)
        self._kick(v)
        self._kinetic(v)
        self._kick(v)

    def observe(self, v, tau):
        u = Wavefunction(self.grid, v)
        rec = moments(u)
        rec.tau = tau
        rec.energy = hamiltonian(u, self.trap, self.Q, external=self.ext_samples)
        # <dV/ds> of the trap lambda_z^2 s^2 / 2 is lambda_z^2 <s>
        rec.grad_v_s = self.trap.lambda_z ** 2 * rec.x_s
        if self.ext_grad is not None:
            rec.grad_v_s += (float(self.grid.integrate(self.ext_grad * u.density()))
                             / rec.norm ** 2)
        return rec


def propagate(u0: Wavefunction, trap: TrapSpec, Q: float, external, cfg: PropagationConfig,
              snapshot_times=()):
    """Propagate a unit-norm state; returns (records, snapshots, final state, time error).

    `external` is None or the (V, dV/ds) pair of `PotentialExpr.sample` on u0's grid.
    `snapshots` lists a state per entry of `snapshot_times` (in [0, t_final]), in
    ascending order of time, duplicates kept.  Records are taken at tau = k * dt
    for k = 0, every `observe_every` steps and the final step (off that cadence
    when the step count is not a multiple of it).  A time within 1e-9 dt of step
    k is that step: its snapshot is a copy of the state after step k.  A time t
    between steps k and k + 1 is that copy taken one step of (t / dt - k) * dt
    further.  Snapshots add no record.

    The time error estimates the final state's error by step doubling, on the
    run's propagator before the run: for second-order Strang splitting two steps
    of dt from u0 differ from one of 2*dt by 3x the two steps' error
    (Richardson), extrapolated linearly to t_final.

    Raises GridMismatchError for samples of another grid's shape and DomainError
    for overlapping sponge layers, both before any step; StepSizeError when the
    norm drifts beyond 1e-6 (never expected with this unitary scheme unless inputs
    are broken) and BlowupError on non-finite values.
    """
    u0.require_unit_norm()
    n_steps = _step("t_final", cfg.t_final, cfg.dt)
    steps = sorted(_step("snapshot time", require("snapshot time", t), cfg.dt)
                   for t in snapshot_times)
    if not all(0 <= s <= n_steps for s in steps):
        raise DomainError("snapshot times must lie within [0, t_final]")
    prop = _Propagator(u0.grid, trap, Q, external, cfg)
    v = np.array(u0.values, dtype=complex, order="C")
    fine, coarse = v.copy(), v.copy()
    prop.step(fine, cfg.dt)
    prop.step(fine, cfg.dt)
    prop.step(coarse, 2.0 * cfg.dt)
    fine -= coarse
    error = u0.grid.norm(fine) / 3.0 * cfg.t_final / (2.0 * cfg.dt)
    del fine, coarse  # freed before the loop: live grid-sized arrays slow its allocations
    records, taken, pending = [], {}, sorted(set(steps), reverse=True)
    for k in range(n_steps + 1):
        if k:
            prop.step(v, cfg.dt)
        while pending and pending[-1] < k + 1:
            s = pending.pop()
            taken[s] = state = v.copy()
            if s % 1:
                prop.step(state, s % 1 * cfg.dt)
        if k % cfg.observe_every and k < n_steps:
            continue
        tau = k * cfg.dt
        if not np.all(np.isfinite(v)):
            raise BlowupError(f"non-finite state at tau = {tau:g}")
        rec = prop.observe(v, tau)
        if prop.sponge is None and abs(rec.norm - 1.0) > NORM_DRIFT_LIMIT:
            raise StepSizeError(f"norm drifted to {rec.norm:.9f} at tau = {tau:g}; reduce dt")
        records.append(rec)
    return (records, [Wavefunction(u0.grid, taken[s]) for s in steps],
            Wavefunction(u0.grid, v), error)


def boost(u: Wavefunction, v: float) -> Wavefunction:
    """Multiply by the plane-wave phase e^{i v s}; shifts <P_s> by exactly v.

    Raises DomainError unless |v| ds < pi/2: beyond it the recorded <P_s>
    aliases (its phase increment spans 2 ds) and the lattice group velocity
    sin(v ds)/ds falls as v rises."""
    s = u.grid.s_coords()
    v_max = 0.5 * math.pi / u.grid.ds
    if not abs(require("v", v)) < v_max:
        raise DomainError(f"boost |v| = {abs(v):g} must stay below pi/(2 ds) = {v_max:g} "
                          f"on this grid (ds = {u.grid.ds:g}); use a finer s grid")
    phase = np.exp(1j * v * s)
    return Wavefunction(u.grid, np.asarray(u.values, dtype=complex) * phase)


def _natural_spline(s, values, target):
    """The natural cubic spline through (s, values) along the last axis, at
    `target` in [s[0], s[-1]]; s is uniformly spaced."""
    n, h = s.size, s[1] - s[0]
    # second derivatives m: m[i-1] + 4 m[i] + m[i+1] = 6 (y[i-1] - 2 y[i] + y[i+1]) / h^2,
    # zero at both ends; one solve takes every leading row as a right-hand side
    m = np.zeros_like(values)
    curvature = (values[..., :-2] - 2.0 * values[..., 1:-1] + values[..., 2:]) * (6.0 / h ** 2)
    m[..., 1:-1] = TridiagonalFactor(1.0, np.full(n - 2, 4.0), 1.0).solve(curvature)
    j = np.clip(((target - s[0]) // h).astype(int), 0, n - 2)
    b = (target - s[j]) / h
    a = 1.0 - b
    return (a * values[..., j] + b * values[..., j + 1]
            + h ** 2 / 6.0 * ((a ** 3 - a) * m[..., j] + (b ** 3 - b) * m[..., j + 1]))


def displace(u: Wavefunction, ds: float) -> Wavefunction:
    """Resample at s - ds by a natural cubic spline and renormalize.

    The spline is scipy's `CubicSpline(bc_type="natural")` to round-off, less
    the import of scipy.interpolate, which alone outlasts a short run.  The
    shift carries the nodes of the exit strip (s + ds beyond the first or last
    node) off the grid.  Raises DomainError when that strip holds more than
    MAX_NORM_LOSS of the norm, measured as 1 - |u outside the strip|/|u| on the
    original state; the interpolation error of the resampling is not mass
    leaving the grid and does not count.
    """
    grid, s = u.grid, u.grid.s_coords()
    require("ds", ds)
    if ds == 0.0:
        return u.copy()
    values = np.asarray(u.values, dtype=complex)
    target = s - ds
    inside = (target >= s[0]) & (target <= s[-1])
    shifted = np.zeros_like(values)
    shifted[..., inside] = _natural_spline(s, values, target[inside])
    norm_before = u.norm()
    exit_strip = (s + ds > s[-1]) | (s + ds < s[0])
    kept = np.where(exit_strip, 0.0, values)
    loss = 1.0 - grid.norm(kept) / norm_before
    norm_after = grid.norm(shifted)
    if norm_after == 0.0 or loss > MAX_NORM_LOSS:
        raise DomainError(
            f"displacement by {ds:g} carries {loss:.3e} of the norm off-grid "
            f"through the exit strip (limit {MAX_NORM_LOSS:g})")
    return Wavefunction(grid, shifted * (norm_before / norm_after))


@dataclass(frozen=True)
class EhrenfestReport:
    max_velocity_mismatch: float       # |dX/dtau - <P>| over interior samples
    max_force_mismatch: float          # |d2X/dtau2 + <dV/ds>| over interior samples
    fitted_frequency: float | None     # from X(tau) when the trap is purely harmonic
    fitted_amplitude: float | None
    n_samples: int


def _fit_oscillation(tau, x):
    """(omega, hypot(a, b)) of x ~ c + a cos(omega tau) + b sin(omega tau) on uniform tau.

    Such samples obey x[k-1] + x[k+1] = 2 cos(omega h) x[k] + const exactly, so
    omega comes from one linear least-squares fit of that recurrence, and
    (c, a, b) from a second at that omega: no seed, no iteration, and no
    scipy.optimize, whose import outlasts a short run.
    """
    h = tau[1] - tau[0]
    (two_cos, _), *_ = np.linalg.lstsq(np.stack([x[1:-1], np.ones(x.size - 2)], axis=1),
                                       x[:-2] + x[2:], rcond=None)
    w = math.acos(min(max(0.5 * two_cos, -1.0), 1.0)) / h
    (_, a, b), *_ = np.linalg.lstsq(
        np.stack([np.ones_like(tau), np.cos(w * tau), np.sin(w * tau)], axis=1), x, rcond=None)
    return w, math.hypot(a, b)


def ehrenfest_check(records, trap: TrapSpec, external=None) -> EhrenfestReport:
    """Centroid-law diagnostics on a recorded trajectory.

    Velocity: finite-difference dX/dtau against the recorded <P>.  Force:
    finite-difference d2X/dtau2 against the recorded -<dV/ds>.  When the
    axial potential is purely harmonic and at least 16 samples cover one
    period, the centroid frequency and amplitude are also fitted; otherwise
    they are None.

    `propagate` always records the final step; when that record falls short
    of the sampling cadence it is left out of the finite differences and the
    fit (`n_samples` counts the records used).  Fewer than 5 samples, or
    non-uniform spacing anywhere else, raise DomainError.
    """
    tau = np.array([r.tau for r in records])
    h = np.diff(tau)
    if h.size >= 2 and 0.0 < h[-1] < h[0] * (1.0 - 1e-10):
        records = records[:-1]
        tau, h = tau[:-1], h[:-1]
    if len(records) < 5:
        raise DomainError("need at least 5 samples for finite-difference checks")
    if not np.allclose(h, h[0], rtol=1e-10, atol=1e-14):
        raise DomainError("ehrenfest_check needs uniformly spaced samples")
    h = h[0]
    x = np.array([r.x_s for r in records])
    p = np.array([r.p_s for r in records])
    gv = np.array([r.grad_v_s for r in records])
    dx = (x[2:] - x[:-2]) / (2.0 * h)
    vel_dev = float(np.max(np.abs(dx - p[1:-1])))
    d2x = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / h ** 2
    force_dev = float(np.max(np.abs(d2x + gv[1:-1])))
    freq = amp = None
    # over less than a period the recurrence's x and constant columns are
    # nearly collinear: omega^2 cannot be told from the equilibrium
    if (external is None and trap.lambda_z > 0 and len(records) >= 16
            and tau[-1] - tau[0] >= 2.0 * math.pi / trap.lambda_z):
        freq, amp = _fit_oscillation(tau, x)
    return EhrenfestReport(
        max_velocity_mismatch=vel_dev,
        max_force_mismatch=force_dev,
        fitted_frequency=freq,
        fitted_amplitude=amp,
        n_samples=len(records),
    )

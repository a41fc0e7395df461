"""Critical interaction strength above which no stable ground state exists.

Bisection on Q with full relaxation probes on a grid the caller supplies; each
probe is warm-started from the last converged state, the nearest one to it.
The bracket moves on verdicts only: a probe that ends neither converged nor
collapsed (max_iters reached) raises DomainError rather than guess a side.
"Collapse" is the relaxation module's numerical proxy (the amplitude ceiling
over the analytic peak), since the physical blowup lies outside the validity
of the mean-field model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .energy import TrapSpec
from .errors import DomainError, require
from .grid import Grid
from .groundstate import DescentConfig, default_initial, relax

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ThresholdTrial:
    Q: float
    converged: bool
    collapsed: bool
    resolved: bool       # converged or collapsed; always True in a returned result
    iterations: int
    energy_total: float


@dataclass
class ThresholdResult:
    q_lo: float          # largest Q with a converged ground state
    q_hi: float          # smallest Q with detected collapse
    trials: list[ThresholdTrial] = field(default_factory=list)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.q_lo + self.q_hi)


def _probe(trap: TrapSpec, Q: float, cfg: DescentConfig, seed):
    """Relax at Q from `seed`; DomainError when it ends with neither verdict."""
    result = relax(seed, trap, Q, cfg)
    if not (result.converged or result.collapsed):
        raise DomainError(
            f"no verdict at Q = {Q} (lambda_z = {trap.lambda_z}): relaxation neither "
            f"converged nor collapsed within max_iters = {cfg.max_iters}")
    trial = ThresholdTrial(
        Q=Q,
        converged=result.converged,
        collapsed=result.collapsed,
        resolved=True,
        iterations=result.iterations,
        energy_total=result.energy.total,
    )
    return result, trial


def find_threshold(grid: Grid, lambda_z: float, bracket: tuple[float, float], tol: float,
                   cfg: DescentConfig = DescentConfig()) -> ThresholdResult:
    """Bracketed bisection for the critical Q on `grid`, which every probe shares.

    Every probe, the q_min and q_max ends included, must end converged or
    collapsed; one that reaches max_iters with neither verdict raises
    DomainError naming its Q, lambda_z and max_iters.  A q_min that collapses or
    a q_max that converges raises DomainError for an invalid bracket, and a tol
    below 2 ulp(q_max), a width the bisection cannot reach, raises it too.
    """
    q_min, q_max = require("q_min", bracket[0], gt=0), require("q_max", bracket[1])
    if not q_min < q_max:
        raise DomainError(f"need 0 < q_min < q_max, got {bracket}")
    # the midpoint of two adjacent floats is one of them, so no probe would narrow them
    require("tol", tol, ge=2.0 * math.ulp(q_max))
    trap = TrapSpec(lambda_z=lambda_z)

    result = ThresholdResult(q_lo=q_min, q_hi=q_max)
    last_converged, trial = _probe(trap, q_min, cfg, default_initial(grid, trap, q_min))
    result.trials.append(trial)
    if trial.collapsed:
        raise DomainError(
            f"invalid bracket: relaxation at q_min = {q_min} did not converge")
    _, trial = _probe(trap, q_max, cfg, last_converged.wavefunction.normalized())
    result.trials.append(trial)
    if not trial.collapsed:
        raise DomainError(
            f"invalid bracket: relaxation at q_max = {q_max} did not collapse")

    while result.q_hi - result.q_lo > tol:
        q_mid = 0.5 * (result.q_lo + result.q_hi)
        res, trial = _probe(trap, q_mid, cfg, last_converged.wavefunction.normalized())
        result.trials.append(trial)
        if trial.collapsed:
            result.q_hi = q_mid
        else:
            result.q_lo, last_converged = q_mid, res
        log.info("threshold probe Q=%.4f -> %s (bracket [%.4f, %.4f])", q_mid,
                 "collapsed" if trial.collapsed else "converged",
                 result.q_lo, result.q_hi)
    return result


@dataclass
class OptimalityScan:
    table: list[tuple[float, ThresholdResult]]
    monotone_nonincreasing: bool


def optimality_scan(runs: list[tuple[float, Grid]], bracket: tuple[float, float], tol: float,
                    cfg: DescentConfig = DescentConfig()) -> OptimalityScan:
    """Threshold per anisotropy plus a monotonicity report (cigar optimality).

    `runs` holds (lambda_z, grid) pairs; each threshold is found on its grid.
    """
    rows = []
    for lz, grid in runs:
        if not 0.0 <= lz <= 1.0:
            raise DomainError(f"lambda_z values must lie in [0, 1], got {lz}")
        rows.append((lz, find_threshold(grid, lz, bracket, tol, cfg)))
    mids = [r.midpoint for _, r in rows]
    order = sorted(range(len(rows)), key=lambda k: rows[k][0])
    monotone = all(mids[order[k + 1]] <= mids[order[k]] + 1e-12
                   for k in range(len(order) - 1))
    return OptimalityScan(table=rows, monotone_nonincreasing=monotone)

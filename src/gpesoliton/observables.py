"""Scalar diagnostics: norm, moments, momentum, widths and peak density."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyBreakdown
from .errors import DomainError
from .grid import Wavefunction


@dataclass
class ObservableRecord:
    """One row of trajectory output."""

    tau: float = 0.0
    norm: float = 0.0
    x_s: float = 0.0
    p_s: float = 0.0
    w_s: float = 0.0
    w_rho: float = 0.0
    peak_density: float = 0.0
    grad_v_s: float = float("nan")
    energy: EnergyBreakdown | None = None

    @staticmethod
    def csv_columns():
        return ("tau", "norm", "energy_total", "x_s", "p_s", "w_s", "w_rho",
                "peak_density", "mean_dV_ds")

    def csv_row(self):
        e = self.energy.total if self.energy is not None else float("nan")
        return (self.tau, self.norm, e, self.x_s, self.p_s, self.w_s, self.w_rho,
                self.peak_density, self.grad_v_s)


def _axial_momentum(values, ds, weighted, norm2):
    # local phase increment across 2*ds (one-sided at the edges); exact under a
    # plane-wave boost, and insensitive to the garbage phase of near-zero tails
    # because each increment is weighted by |u|^2
    inner = np.conj(values[..., :-2])
    inner *= values[..., 2:]
    inner = np.angle(inner)
    ends = np.angle(values[..., [1, -1]] * np.conj(values[..., [0, -2]]))
    return (float(np.sum(weighted[..., 1:-1] * inner)) / (2.0 * ds)
            + float(np.sum(weighted[..., [0, -1]] * ends)) / ds) / norm2


def moments(u: Wavefunction) -> ObservableRecord:
    """Normalized first/second moments, momentum and peak density of a state."""
    grid = u.grid
    weighted = u.density()
    peak = float(weighted.max())
    weighted *= grid.weights
    norm2 = float(weighted.sum())
    if norm2 == 0.0:
        raise DomainError("moments of the zero field are undefined")
    rec = ObservableRecord(norm=math.sqrt(norm2), peak_density=peak)
    # the moments are taken against the density summed over the other axis
    radial, axial = grid.axis_sums(weighted)
    rec.w_rho = (float("nan") if radial is None
                 else math.sqrt(float(grid.radial ** 2 @ radial) / norm2))
    if axial is None:
        rec.x_s = rec.p_s = rec.w_s = float("nan")
        return rec
    rec.x_s = float(grid.s @ axial) / norm2
    s2 = float(grid.s ** 2 @ axial) / norm2
    rec.w_s = math.sqrt(max(s2 - rec.x_s ** 2, 0.0))
    rec.p_s = _axial_momentum(np.asarray(u.values, dtype=complex), grid.ds, weighted, norm2)
    return rec

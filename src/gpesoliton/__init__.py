"""Ground states, collapse thresholds and transport of attractive condensates
in cigar-shaped traps, in dimensionless trap units."""

__version__ = "0.1.0"

from .energy import EnergyBreakdown, TrapSpec, hamiltonian
from .grid import Geometry, Grid, Wavefunction, cylindrical_grid, line_grid, spherical_grid
from .groundstate import DescentConfig, GroundStateResult, default_initial, relax
from .dynamics import PropagationConfig, boost, displace, ehrenfest_check, propagate
from .observables import ObservableRecord, moments
from .potentials import ExternalPotential, parse
from .collapse import ThresholdResult, find_threshold, optimality_scan
from .units import PhysicalParams, n_from_q, oscillator_length, q_from_n

__all__ = [
    "EnergyBreakdown", "TrapSpec", "hamiltonian",
    "Geometry", "Grid", "Wavefunction", "cylindrical_grid", "line_grid", "spherical_grid",
    "DescentConfig", "GroundStateResult", "default_initial", "relax",
    "PropagationConfig", "boost", "displace", "ehrenfest_check", "propagate",
    "ObservableRecord", "moments",
    "ExternalPotential", "parse",
    "ThresholdResult", "find_threshold", "optimality_scan",
    "PhysicalParams", "n_from_q", "oscillator_length", "q_from_n",
]

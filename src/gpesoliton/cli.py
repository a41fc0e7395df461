"""Command-line entry point: CSV data products for every solver.

Subcommands: ground, evolve, collapse, analytic, units, figures.  All output
is comma-separated with 17 significant digits, preceded by a comment line
naming the columns and the dimensionless conventions (lengths in a0, time in
1/omega, energies in hbar*omega, doubled energy functional, mu = GPE
eigenvalue).  Every run writes a `<out>.manifest` echoing the fully resolved
configuration, so reruns are reproducible bit for bit, with the numpy version
and the LAPACK that served the run.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, analytic, units
from . import grid as grid_module
from .collapse import find_threshold, optimality_scan
from .dynamics import PropagationConfig, boost, displace, ehrenfest_check, propagate
from .energy import TrapSpec
from .errors import DomainError, GpeError
from .grid import (Geometry, Grid, Wavefunction, cylindrical_grid,
                   default_half_extent_s, line_grid, spherical_grid)
from .groundstate import DescentConfig, default_initial, relax
from .observables import ObservableRecord, moments
from .potentials import ExternalPotential, parse as parse_potential

log = logging.getLogger(__name__)

UNITS_NOTE = ("dimensionless trap units: lengths in a0, time in 1/omega, "
              "energies in hbar*omega; total = kinetic+trap+interaction+external "
              "(doubled functional); mu is the GPE eigenvalue")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


_BLOCK_ROWS = 1024


def write_csv(path, columns, rows, note=UNITS_NOTE):
    """Write a comment line, the column names and one line per row.

    `rows` is an iterable of rows, each value written by `_fmt`, or a float
    ndarray with one row per line (a 1-D array is one column).  An ndarray is
    written in blocks of `_BLOCK_ROWS` rows, which bounds the text held at
    once.  Within a block each distinct bit
    pattern of a column is formatted once; bit patterns rather than values, so
    -0.0 and 0.0 keep their own text.  The bytes are those of `%.17g` applied
    to every value, as the row path writes them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {note}\n")
        fh.write(",".join(columns) + "\n")
        if isinstance(rows, np.ndarray):
            table = rows.astype(np.float64, copy=False)
            if table.ndim == 1:
                table = table[:, None]
            for start in range(0, len(table), _BLOCK_ROWS):
                texts = []
                for col in table[start:start + _BLOCK_ROWS].T:
                    bits, inverse = np.unique(np.ascontiguousarray(col).view(np.int64),
                                              return_inverse=True)
                    distinct = ["%.17g" % x for x in bits.view(np.float64).tolist()]
                    texts.append(np.array(distinct, dtype=object)[inverse])
                fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
            return
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_manifest(out_path, resolved: dict):
    """`key = value` lines of `resolved`, plus the numpy version and the LAPACK used."""
    resolved = dict(resolved, numpy=np.__version__,
                    lapack="scipy" if grid_module._bundled_lapack() is None else "numpy-openblas")
    path = Path(str(out_path) + ".manifest")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# gpesoliton {__version__} resolved configuration\n")
        for key in sorted(resolved):
            fh.write(f"{key} = {resolved[key]}\n")


# --- config file ------------------------------------------------------------


def load_config(path) -> dict:
    """Flat `key = value` file; '#' starts a comment; keys use flag spelling."""
    values = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def apply_config(args: argparse.Namespace, config: dict, converters: dict):
    unknown = set(config) - set(converters)
    if unknown:
        raise DomainError(
            "unknown config keys: " + ", ".join(sorted(unknown))
            + "; known: " + ", ".join(sorted(converters)))
    for key, raw in config.items():
        if getattr(args, key, None) is None:
            try:
                setattr(args, key, converters[key](raw))
            except ValueError as exc:
                raise DomainError(f"config key {key}: {exc}") from exc


def resolved_dict(args, keys):
    out = {}
    for k in keys:
        v = getattr(args, k)
        if isinstance(v, float):
            out[k] = _fmt(v)
        else:
            out[k] = str(v)
    return out


# --- shared argument groups ---------------------------------------------------

GEOMETRIES = {"line": Geometry.LINE, "cylindrical": Geometry.CYLINDRICAL,
              "spherical": Geometry.SPHERICAL_RADIAL}


def _add(parser, conv, name, **kw):
    typ = kw.get("type")
    dest = name.lstrip("-").replace("-", "_")
    conv[dest] = typ if typ is not None else str
    parser.add_argument(name, **kw)


def add_grid_args(p, conv):
    _add(p, conv, "--geometry", type=str, default=None,
         help="line | cylindrical | spherical")
    _add(p, conv, "--rho-max", type=float, default=None)
    _add(p, conv, "--n-rho", type=int, default=None)
    _add(p, conv, "--s-extent", type=float, default=None,
         help="axial half-extent (defaults to the soliton-width rule)")
    _add(p, conv, "--n-s", type=int, default=None)
    _add(p, conv, "--r-max", type=float, default=None)
    _add(p, conv, "--n-r", type=int, default=None)


def add_solver_args(p, conv):
    _add(p, conv, "--step-size", type=float, default=None,
         help="relaxation step tau along the preconditioned gradient (default 1; "
              "halved after any energy rise)")
    _add(p, conv, "--max-iters", type=int, default=None)
    _add(p, conv, "--energy-tol", type=float, default=None)
    _add(p, conv, "--residual-tol", type=float, default=None)
    _add(p, conv, "--collapse-guard", type=float, default=None)


def _fill_defaults(args, defaults):
    for key, val in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)


GRID_DEFAULTS = {"geometry": "cylindrical", "rho_max": 6.0, "n_rho": 96,
                 "n_s": 384, "r_max": 6.0, "n_r": 512}
SOLVER_DEFAULTS = {"step_size": 1.0, "max_iters": 200_000, "energy_tol": 1e-10,
                   "residual_tol": 1e-5, "collapse_guard": 5.0}


def build_run_grid(args, Q, lambda_z) -> Grid:
    kind = GEOMETRIES.get(args.geometry)
    if kind is None:
        raise DomainError(f"unknown geometry {args.geometry!r}; "
                          f"choose from {', '.join(GEOMETRIES)}")
    if kind is Geometry.SPHERICAL_RADIAL:
        return spherical_grid(args.r_max, args.n_r)
    half = args.s_extent
    if half is None:
        half = default_half_extent_s(Q, lambda_z)
    if kind is Geometry.LINE:
        return line_grid(-half, half, args.n_s)
    return cylindrical_grid(args.rho_max, -half, half, args.n_rho, args.n_s)


def descent_config(args) -> DescentConfig:
    return DescentConfig(step_size=args.step_size, max_iters=args.max_iters,
                         energy_tol=args.energy_tol, residual_tol=args.residual_tol,
                         collapse_guard=args.collapse_guard)


def parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise DomainError(f"--param expects name=value, got {pair!r}")
        name, _, val = pair.partition("=")
        try:
            out[name.strip()] = float(val)
        except ValueError as exc:
            raise DomainError(f"--param {name}: {exc}") from exc
    return out


def external_from_args(args) -> ExternalPotential | None:
    if not getattr(args, "potential", None):
        return None
    return ExternalPotential(parse_potential(args.potential),
                             parse_params(args.param))


# --- state / summary writers ---------------------------------------------------


def write_state_csv(path, u: Wavefunction):
    grid = u.grid
    v = np.ravel(u.values)
    nan = np.full(v.size, np.nan)
    if grid.kind is Geometry.CYLINDRICAL:
        rho, s = np.repeat(grid.rho, grid.s.size), np.tile(grid.s, grid.rho.size)
    elif grid.kind is Geometry.LINE:
        rho, s = nan, grid.s
    else:
        rho, s = grid.r, nan
    note = UNITS_NOTE + "; rho column holds r on spherical grids, nan on line grids"
    write_csv(path, ("rho", "s", "re_u", "im_u"),
              np.column_stack((rho, s, v.real, v.imag)), note=note)


def ground_summary_row(Q, lambda_z, res):
    m = moments(res.wavefunction)
    e = res.energy
    return (Q, lambda_z, e.kinetic, e.trap, e.interaction, e.external, e.total,
            e.chemical_potential, res.iterations, res.converged, res.collapsed,
            m.w_s)


GROUND_SUMMARY_COLS = ("Q", "lambda_z", "kinetic", "trap", "interaction",
                       "external", "total", "mu", "iterations", "converged",
                       "collapsed", "W_s")


# --- subcommand implementations -------------------------------------------------


def cmd_units(args):
    _fill_defaults(args, {"a": units.LI7_SCATTERING_LENGTH,
                          "nu": 150.0, "mass_u": 7.016003, "lambda_z": 0.0,
                          "frequency_convention": units.ANGULAR})
    rows = []

    def params_for(N):
        return units.PhysicalParams(
            scattering_length_a=args.a,
            atom_mass_m=args.mass_u * units.ATOMIC_MASS,
            radial_frequency_nu=args.nu,
            particle_number_N=N,
            lambda_z=args.lambda_z,
            frequency_convention=args.frequency_convention)

    for N in _float_list(args.n):
        p = params_for(N)
        rows.append((N, units.q_from_n(p), units.oscillator_length(p), args.lambda_z))
    for Q in _float_list(args.q):
        p = params_for(1.0)
        N = units.n_from_q(Q, p)
        rows.append((N, Q, units.oscillator_length(p), args.lambda_z))
    if not rows:
        raise DomainError("give at least one of --n or --q")
    _emit_table(args, ("N", "Q", "a0_m", "lambda_z"), rows)
    return 0


def _float_list(spec):
    if not spec:
        return []
    try:
        return [float(tok) for tok in str(spec).split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"expected a comma list of numbers, got {spec!r}") from exc


def _single_q(args) -> float:
    qs = _float_list(args.q)
    if len(qs) != 1:
        raise DomainError(f"--q takes one value here, got {args.q!r}")
    return qs[0]


def _emit_table(args, columns, rows):
    if args.out:
        write_csv(args.out, columns, rows)
        write_manifest(args.out, resolved_dict(args, vars(args).keys() - {"func", "config"}))
    else:
        sys.stdout.write(f"# {UNITS_NOTE}\n")
        sys.stdout.write(",".join(columns) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(x) for x in row) + "\n")


def cmd_analytic(args):
    what = args.what
    if what == "profile":
        _fill_defaults(args, {"q": 5.0, "s_extent": None, "n_s": 512})
        Q = _single_q(args)
        half = default_half_extent_s(Q, 0.0) if args.s_extent is None else args.s_extent
        if not (math.isfinite(half) and half > 0):
            raise DomainError(f"--s-extent must be positive and finite, got {half}")
        if args.n_s < grid_module.MIN_RESOLUTION:
            raise DomainError(f"--n-s must be at least {grid_module.MIN_RESOLUTION}, "
                              f"got {args.n_s}")
        s = np.linspace(-half, half, args.n_s)
        phi = analytic.soliton_profile(Q, s)
        rows = [(Q, sv, pv) for sv, pv in zip(s, phi)]
        _emit_table(args, ("Q", "s", "phi"), rows)
    elif what == "width":
        qs = _float_list(args.q) or [2.0, 5.0, 10.0]
        rows = [(Q, analytic.soliton_width(Q), analytic.soliton_second_moment(Q))
                for Q in qs]
        _emit_table(args, ("Q", "W_s", "s2_moment"), rows)
    elif what == "ratio":
        _fill_defaults(args, {"q": 5.0})
        Q = _single_q(args)
        rhos = _float_list(args.rho) or [0.5, 1.0, 2.0]
        ss = _float_list(args.s) or [0.0, 1.0, 5.0]
        rows = [(Q, rho, s, float(analytic.dominance_ratio(Q, rho, s)))
                for rho in rhos for s in ss]
        _emit_table(args, ("Q", "rho", "s", "ratio"), rows)
    elif what == "variational":
        lzs = _float_list(args.lambda_z) or [0.0, 1.0]
        rows = [(lz, analytic.variational_critical_q(lz)) for lz in lzs]
        _emit_table(args, ("lambda_z", "q_critical"), rows)
    else:
        raise DomainError(f"unknown table {what!r}; "
                          "choose profile, width, ratio or variational")
    return 0


def cmd_ground(args):
    _fill_defaults(args, GRID_DEFAULTS)
    _fill_defaults(args, SOLVER_DEFAULTS)
    _fill_defaults(args, {"lambda_z": 0.0})
    if args.q is None:
        raise DomainError("ground requires --q")
    Q, lambda_z = args.q, args.lambda_z
    grid = build_run_grid(args, Q, lambda_z)
    trap = TrapSpec(lambda_z)
    res = relax(default_initial(grid, trap, Q), trap, Q, descent_config(args))
    out = Path(args.out)
    write_state_csv(out, res.wavefunction)
    write_csv(out.parent / (out.name + ".summary"), GROUND_SUMMARY_COLS,
              [ground_summary_row(Q, lambda_z, res)])
    write_manifest(out, resolved_dict(args, vars(args).keys() - {"func", "config"}))
    log.info("ground state: converged=%s collapsed=%s iters=%d residual=%.3e",
             res.converged, res.collapsed, res.iterations, res.residual)
    return 0


def _lattice_step(t, dt, what) -> int:
    """The step count k with k * dt = t; DomainError naming `what` when t is off that lattice."""
    k = round(t / dt)
    if abs(t - k * dt) > 1e-9 * dt:
        raise DomainError(f"{what} {t:g} is off the dt = {dt:g} lattice; the "
                          f"nearest lattice times are {math.floor(t / dt) * dt:.12g} "
                          f"and {math.ceil(t / dt) * dt:.12g}")
    return k


def cmd_evolve(args):
    _fill_defaults(args, GRID_DEFAULTS)
    _fill_defaults(args, SOLVER_DEFAULTS)
    _fill_defaults(args, {"lambda_z": 0.0, "q": 5.0, "initial": "ground",
                          "boost": 0.0, "displace": 0.0, "dt": 5e-4,
                          "observe_every": 20, "sponge_strength": 0.0, "sponge_width": 0.0})
    if args.t_final is None:
        raise DomainError("evolve requires --t-final")
    if args.geometry == "spherical":
        raise DomainError("evolve supports line and cylindrical geometry")
    cfg = PropagationConfig(t_final=args.t_final, dt=args.dt,
                            observe_every=args.observe_every,
                            sponge_strength=args.sponge_strength,
                            sponge_width=args.sponge_width)
    n_final = _lattice_step(cfg.t_final, cfg.dt, "t_final")
    snaps = [(_lattice_step(t, cfg.dt, "snapshot time"), t)
             for t in sorted(_float_list(args.snapshot_times))]
    if snaps and (snaps[0][0] < 0 or snaps[-1][0] > n_final):
        raise DomainError("snapshot times must lie within [0, t_final]")
    Q, lambda_z = args.q, args.lambda_z
    grid = build_run_grid(args, Q, lambda_z)
    trap = TrapSpec(lambda_z)
    if args.initial == "ground":
        res = relax(default_initial(grid, trap, Q), trap, Q, descent_config(args))
        if not res.converged:
            raise DomainError("relaxation for the initial state did not converge; "
                              "tune the solver flags or pick --initial composite")
        u0 = res.wavefunction.normalized()
    elif args.initial == "composite":
        u0 = default_initial(grid, TrapSpec(0.0), Q)
    elif args.initial == "gaussian":
        u0 = default_initial(grid, trap, 0.0)
    else:
        raise DomainError(f"unknown initial state {args.initial!r}")
    u0 = Wavefunction(grid, np.asarray(u0.values, dtype=complex))
    if args.displace:
        u0 = displace(u0, args.displace)
    if args.boost:
        u0 = boost(u0, args.boost)
    u0 = u0.normalized()
    ext = external_from_args(args)
    out = Path(args.out)
    legs = []
    if snaps:
        u, k_done = u0, 0
        for k_snap, t_snap in snaps + [(n_final, None)]:
            if k_snap > k_done:
                leg_cfg = replace(cfg, t_final=(k_snap - k_done) * cfg.dt)
                leg, u = propagate(u, trap, Q, ext, leg_cfg)
                for rec in leg:
                    rec.tau += k_done * cfg.dt
                legs.append(leg)
                k_done = k_snap
            if t_snap is not None:
                write_state_csv(out.parent / f"{out.stem}.snapshot_{t_snap:g}.csv", u)
    else:
        legs.append(propagate(u0, trap, Q, ext, cfg)[0])
    # each leg opens with a record of the state the previous leg closed with
    records = [rec for k, leg in enumerate(legs) for rec in leg[1 if k else 0:]]
    write_csv(out, ObservableRecord.csv_columns(), [r.csv_row() for r in records])
    write_manifest(out, resolved_dict(args, vars(args).keys() - {"func", "config"}))
    # a leg ends at its snapshot time, off the sampling cadence of the next leg,
    # so the centroid laws are checked leg by leg
    for leg in legs:
        if len(leg) < 5:
            continue
        span = f"tau in [{leg[0].tau:g}, {leg[-1].tau:g}]"
        try:
            rep = ehrenfest_check(leg, trap, ext)
            log.info("ehrenfest on %s: |dX/dt - <P>| <= %.3e, |d2X/dt2 + <dV/ds>| <= %.3e",
                     span, rep.max_velocity_mismatch, rep.max_force_mismatch)
        except DomainError as exc:
            log.info("ehrenfest check on %s skipped: %s", span, exc)
    return 0


def cmd_collapse(args):
    _fill_defaults(args, GRID_DEFAULTS)
    _fill_defaults(args, SOLVER_DEFAULTS)
    _fill_defaults(args, {"lambda_z": 0.0, "q_min": 10.0, "q_max": 25.0, "tol": 0.5})
    lambda_z = 1.0 if args.geometry == "spherical" else args.lambda_z
    cfg = descent_config(args)
    bracket = (args.q_min, args.q_max)
    scan_lzs = _float_list(args.scan_lambda_z)
    if scan_lzs:
        runs = [(lz, build_run_grid(args, args.q_min, lz)) for lz in scan_lzs]
        scan = optimality_scan(runs, bracket, args.tol, cfg)
        table = scan.table
        log.info("optimality scan monotone non-increasing: %s",
                 scan.monotone_nonincreasing)
    else:
        grid = build_run_grid(args, args.q_min, lambda_z)
        thr = find_threshold(grid, lambda_z, bracket, args.tol, cfg)
        table = [(lambda_z, thr)]
        log.info("threshold bracket: [%.4f, %.4f]", thr.q_lo, thr.q_hi)
    rows = []
    for lz, thr in table:
        for t in thr.trials:
            rows.append((lz, t.Q, t.converged, t.collapsed, t.resolved,
                         t.iterations, t.energy_total))
        rows.append((lz, thr.midpoint, True, True, True, 0, float("nan")))
    write_csv(args.out,
              ("lambda_z", "Q", "converged", "collapsed", "resolved",
               "iterations", "energy_total"),
              rows,
              note=UNITS_NOTE + "; last row per lambda_z is the bracket midpoint")
    write_manifest(args.out, resolved_dict(args, vars(args).keys() - {"func", "config"}))
    return 0


def cmd_figures(args):
    _fill_defaults(args, GRID_DEFAULTS)
    _fill_defaults(args, SOLVER_DEFAULTS)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.which == "fig1":
        Q, lzs = 5.0, (0.4, 0.2, 0.0)
    elif args.which == "fig2":
        Q, lzs = 10.0, (0.0,)
    else:
        raise DomainError(f"unknown figure {args.which!r}; choose fig1 or fig2")
    summary = []
    for lz in lzs:
        grid = build_run_grid(args, Q, lz)
        trap = TrapSpec(lz)
        res = relax(default_initial(grid, trap, Q), trap, Q, descent_config(args))
        u = np.abs(res.wavefunction.values)
        rho0 = grid.rho[0]
        j0 = int(np.argmin(np.abs(grid.s)))
        if lz > 0:
            overlay_s = analytic.gaussian_ground_state(lz, rho0, grid.s)
            overlay_rho = analytic.gaussian_ground_state(lz, grid.rho, grid.s[j0])
        else:
            overlay_s = np.abs(analytic.composite_profile(Q, rho0, grid.s))
            overlay_rho = np.abs(analytic.composite_profile(Q, grid.rho, grid.s[j0]))
        tag = f"{args.which}_lz{lz:g}"
        write_csv(outdir / f"{tag}_s_section.csv", ("s", "abs_u", "abs_overlay"),
                  list(zip(grid.s, u[0, :], overlay_s)),
                  note=UNITS_NOTE + f"; section at rho = {rho0:.6g} (first node)")
        write_csv(outdir / f"{tag}_rho_section.csv", ("rho", "abs_u", "abs_overlay"),
                  list(zip(grid.rho, u[:, j0], overlay_rho)),
                  note=UNITS_NOTE + f"; section at s = {grid.s[j0]:.6g} (node nearest 0)")
        summary.append(ground_summary_row(Q, lz, res))
    write_csv(outdir / f"{args.which}_summary.csv", GROUND_SUMMARY_COLS, summary)
    write_manifest(outdir / args.which,
                   resolved_dict(args, vars(args).keys() - {"func", "config"}))
    return 0


# --- argument wiring --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gpesoliton",
        description="Attractive-condensate soliton toolkit (CSV outputs)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    converters = {}

    def new_sub(name, fn, help):
        conv = {}
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None,
                       help="flat key = value file; flags override it")
        p.add_argument("--quiet", action="store_true", default=False)
        conv["quiet"] = lambda v: v.strip().lower() in ("1", "true", "yes")
        p.set_defaults(func=fn)
        converters[name] = conv
        return p, conv

    p, conv = new_sub("units", cmd_units, "physical <-> dimensionless conversion table")
    _add(p, conv, "--n", type=str, default=None, help="comma list of particle numbers")
    _add(p, conv, "--q", type=str, default=None, help="comma list of Q values")
    _add(p, conv, "--a", type=float, default=None, help="scattering length in m (negative)")
    _add(p, conv, "--nu", type=float, default=None, help="radial frequency in Hz")
    _add(p, conv, "--mass-u", type=float, default=None, help="atom mass in u")
    _add(p, conv, "--lambda-z", type=float, default=None)
    _add(p, conv, "--frequency-convention", type=str, default=None,
         help="angular (omega = 2 pi nu, default) or linear")
    _add(p, conv, "--out", type=str, default=None)

    p, conv = new_sub("analytic", cmd_analytic, "closed-form tables")
    p.add_argument("what", choices=("profile", "width", "ratio", "variational"))
    conv["what"] = str
    _add(p, conv, "--q", type=str, default=None)
    _add(p, conv, "--lambda-z", type=str, default=None)
    _add(p, conv, "--rho", type=str, default=None)
    _add(p, conv, "--s", type=str, default=None)
    _add(p, conv, "--s-extent", type=float, default=None)
    _add(p, conv, "--n-s", type=int, default=None)
    _add(p, conv, "--out", type=str, default=None)

    p, conv = new_sub("ground", cmd_ground, "relax to the ground state")
    _add(p, conv, "--q", type=float, default=None)
    _add(p, conv, "--lambda-z", type=float, default=None)
    add_grid_args(p, conv)
    add_solver_args(p, conv)
    _add(p, conv, "--out", type=str, required=True)

    p, conv = new_sub("evolve", cmd_evolve, "real-time propagation")
    _add(p, conv, "--q", type=float, default=None)
    _add(p, conv, "--lambda-z", type=float, default=None)
    add_grid_args(p, conv)
    add_solver_args(p, conv)
    _add(p, conv, "--initial", type=str, default=None,
         help="ground (relax first), composite, or gaussian")
    _add(p, conv, "--boost", type=float, default=None)
    _add(p, conv, "--displace", type=float, default=None)
    _add(p, conv, "--potential", type=str, default=None,
         help="axial potential expression over s (and rho on cylindrical grids)")
    p.add_argument("--param", action="append", default=None,
                   help="name=value binding for the potential (repeatable)")
    conv["param"] = lambda v: [tok.strip() for tok in v.split(",")]
    _add(p, conv, "--dt", type=float, default=None)
    _add(p, conv, "--t-final", type=float, default=None,
         help="final time, a whole number of --dt steps")
    _add(p, conv, "--observe-every", type=int, default=None)
    _add(p, conv, "--sponge-strength", type=float, default=None)
    _add(p, conv, "--sponge-width", type=float, default=None)
    _add(p, conv, "--snapshot-times", type=str, default=None,
         help="comma list of times at which to write state snapshots, "
              "each a whole number of --dt steps")
    _add(p, conv, "--out", type=str, required=True)

    p, conv = new_sub("collapse", cmd_collapse, "critical Q by bisection")
    _add(p, conv, "--lambda-z", type=float, default=None)
    add_grid_args(p, conv)
    add_solver_args(p, conv)
    _add(p, conv, "--q-min", type=float, default=None)
    _add(p, conv, "--q-max", type=float, default=None)
    _add(p, conv, "--tol", type=float, default=None)
    _add(p, conv, "--scan-lambda-z", type=str, default=None,
         help="comma list of anisotropies for an optimality scan")
    _add(p, conv, "--out", type=str, required=True)

    p, conv = new_sub("figures", cmd_figures, "section datasets for the two figures")
    p.add_argument("which", choices=("fig1", "fig2"))
    conv["which"] = str
    add_grid_args(p, conv)
    add_solver_args(p, conv)
    _add(p, conv, "--out", type=str, required=True)

    return parser, converters


def main(argv=None) -> int:
    parser, converters = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config:
            apply_config(args, load_config(args.config), converters[args.command])
        return args.func(args)
    except GpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()

"""Command-line entry point: CSV data products for every solver.

Subcommands: ground, evolve, collapse, analytic, units, figures.  All output
is comma-separated with 17 significant digits, preceded by a comment line
naming the columns and the dimensionless conventions (lengths in a0, time in
1/omega, energies in hbar*omega, doubled energy functional, mu = GPE
eigenvalue).  Every run writes a `<out>.manifest` echoing the fully resolved
configuration, so reruns are reproducible bit for bit, with the numpy version
and the LAPACK that served the run (and, for evolve, the estimated time_error).

Each flag is one row of `_SUBCOMMANDS`, the one holder of its default; a
`--config` file's keys are the subcommand's flag names.  One parser, shared by
every call, returns only the flags given, and `main` merges default, file and
flag in one pass, the later winning.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, analytic, units
from . import grid as grid_module
from .collapse import find_threshold, optimality_scan
from .dynamics import PropagationConfig, boost, displace, ehrenfest_check, propagate
from .energy import TrapSpec
from .errors import DomainError, GpeError, require
from .grid import (Geometry, Grid, Wavefunction, cylindrical_grid,
                   default_half_extent_s, line_grid, spherical_grid)
from .groundstate import DescentConfig, analytic_state, default_initial, relax
from .observables import ObservableRecord, moments
from .potentials import FUNCTIONS, ExternalPotential, parse as parse_potential

log = logging.getLogger("gpesoliton.cli")  # also when run as __main__

UNITS_NOTE = ("dimensionless trap units: lengths in a0, time in 1/omega, "
              "energies in hbar*omega; total = kinetic+trap+interaction+external "
              "(doubled functional); mu is the GPE eigenvalue")


_BLOCK_ROWS = 1024


def _write_table(fh, columns, rows, note):
    """A comment line, the column names and one line per row, each value as `%.17g`.

    `rows` is a float ndarray (a 1-D array is one column) or rows that
    `np.asarray` makes one; `%.17g` writes a bool as 1 or 0 and an integer in
    its digits.  Blocks of `_BLOCK_ROWS` rows bound the text held at once; in a
    block each distinct bit pattern of a column (so -0.0 apart from 0.0) is
    formatted once, all of them by one `%` operation on a repeated format.
    """
    fh.write(f"# {note}\n")
    fh.write(",".join(columns) + "\n")
    table = np.asarray(rows, dtype=np.float64)
    if table.ndim == 1:
        table = table[:, None]
    for start in range(0, len(table), _BLOCK_ROWS):
        texts = []
        for col in table[start:start + _BLOCK_ROWS].T:
            bits, inverse = np.unique(np.ascontiguousarray(col).view(np.int64),
                                      return_inverse=True)
            values = tuple(bits.view(np.float64).tolist())
            distinct = ("\n".join(["%.17g"] * len(values)) % values).split("\n")
            texts.append(np.array(distinct, dtype=object)[inverse])
        fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def write_csv(path, columns, rows, note=UNITS_NOTE):
    """`_write_table` into the file `path`, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        _write_table(fh, columns, rows, note)


def write_manifest(out_path, args: argparse.Namespace, **measured):
    """`key = value` lines of the resolved `args` and `measured`, numpy's version and the LAPACK."""
    resolved = {k: f"{v:.17g}" if isinstance(v, float) else str(v)
                for k, v in {**vars(args), **measured}.items() if k != "func"}
    resolved.update(numpy=np.__version__,
                    lapack="scipy" if grid_module._bundled_lapack() is None else "numpy-openblas")
    path = Path(str(out_path) + ".manifest")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# gpesoliton {__version__} resolved configuration\n")
        for key in sorted(resolved):
            fh.write(f"{key} = {resolved[key]}\n")


# --- config file ------------------------------------------------------------

def _file_bool(text) -> bool:
    """1/0, true/false or yes/no, in any case; ValueError for anything else."""
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}")


_FILE_TYPES = {bool: _file_bool, list: lambda v: [tok.strip() for tok in v.split(",")]}


def _dest(flag) -> str:
    return flag[2:].replace("-", "_")


def load_config(path, rows) -> dict:
    """Flat `key = value` file; '#' starts a comment; the keys are the flags of
    `rows` without their leading '--', and each value takes its row's type."""
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
    types = {_dest(row.flag): row.type for row in rows}
    unknown = values.keys() - types
    if unknown:
        raise DomainError("unknown config keys: " + ", ".join(sorted(unknown))
                          + "; known: " + ", ".join(sorted(types)))
    for key, raw in values.items():
        try:
            values[key] = _FILE_TYPES.get(types[key], types[key])(raw)
        except ValueError as exc:
            raise DomainError(f"config key {key}: {exc}") from exc
    return values


def build_run_grid(args, Q, lambda_z) -> Grid:
    # figures has no --geometry: its (rho, s) sections need a cylinder
    try:
        kind = Geometry(getattr(args, "geometry", "cylindrical"))
    except ValueError:
        raise DomainError(f"unknown geometry {args.geometry!r}; "
                          f"choose from {', '.join(g.value for g in Geometry)}") from None
    if kind is Geometry.SPHERICAL_RADIAL:
        return spherical_grid(args.r_max, args.n_r)
    half = args.s_extent
    if half is None:
        half = default_half_extent_s(Q, lambda_z)
    if kind is Geometry.LINE:
        return line_grid(-half, half, args.n_s)
    return cylindrical_grid(args.rho_max, -half, half, args.n_rho, args.n_s)


def _from_args(config_class, args):
    """A `config_class` dataclass whose fields take the values of the flags named like them."""
    return config_class(**{f.name: getattr(args, f.name) for f in fields(config_class)})


def parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise DomainError(f"--param expects name=value, got {pair!r}")
        name, _, val = map(str.strip, pair.partition("="))
        try:
            out[name] = require(f"--param {name}", float(val))
        except ValueError as exc:
            raise DomainError(f"--param {name}: {exc}") from exc
    return out


# --- state / summary writers ---------------------------------------------------


def write_state_csv(path, u: Wavefunction):
    grid = u.grid
    v = np.ravel(u.values)
    rho = (np.full(v.size, np.nan) if grid.radial is None
           else np.repeat(grid.radial, v.size // grid.radial.size))
    s = np.full(v.size, np.nan) if grid.s is None else np.tile(grid.s, v.size // grid.s.size)
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
    rows = []

    def params_for(N):
        return units.PhysicalParams(
            scattering_length_a=args.a,
            atom_mass_m=args.mass_u * units.ATOMIC_MASS,
            radial_frequency_nu=args.nu,
            particle_number_N=N)

    for N in _float_list(args, "--n"):
        p = params_for(N)
        rows.append((N, units.q_from_n(p), units.oscillator_length(p)))
    for Q in _float_list(args, "--q"):
        p = params_for(1.0)
        N = units.n_from_q(Q, p)
        rows.append((N, Q, units.oscillator_length(p)))
    if not rows:
        raise DomainError("give at least one of --n or --q")
    _emit_table(args, ("N", "Q", "a0_m"), rows)
    return 0


def _float_list(args, flag):
    """The finite numbers of the comma list given as `flag`; DomainError naming it otherwise."""
    spec = getattr(args, _dest(flag))
    try:
        values = [float(tok) for tok in str(spec or "").split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"{flag} expects a comma list of numbers, got {spec!r}") from exc
    return [require(flag, v) for v in values]


def _single_q(args) -> float:
    qs = _float_list(args, "--q")
    if len(qs) != 1:
        raise DomainError(f"--q takes one value here, got {args.q!r}")
    return qs[0]


def _emit_table(args, columns, rows):
    if args.out:
        write_csv(args.out, columns, rows)
        write_manifest(args.out, args)
    else:
        _write_table(sys.stdout, columns, rows, UNITS_NOTE)


def cmd_analytic(args):
    what = args.what
    if what in ("profile", "ratio") and args.q is None:
        args.q = 5.0
    if what == "profile":
        if args.n_s is None:
            args.n_s = 512
        Q = _single_q(args)
        half = default_half_extent_s(Q, 0.0) if args.s_extent is None else args.s_extent
        require("--s-extent", half, gt=0)
        require("--n-s", args.n_s, ge=grid_module.MIN_RESOLUTION, integer=True)
        s = np.linspace(-half, half, args.n_s)
        phi = analytic.soliton_profile(Q, s)
        rows = [(Q, sv, pv) for sv, pv in zip(s, phi)]
        _emit_table(args, ("Q", "s", "phi"), rows)
    elif what == "width":
        qs = _float_list(args, "--q") or [2.0, 5.0, 10.0]
        rows = [(Q, analytic.soliton_width(Q), analytic.soliton_second_moment(Q))
                for Q in qs]
        _emit_table(args, ("Q", "W_s", "s2_moment"), rows)
    elif what == "ratio":
        Q = _single_q(args)
        rhos = _float_list(args, "--rho") or [0.5, 1.0, 2.0]
        ss = _float_list(args, "--s") or [0.0, 1.0, 5.0]
        rows = [(Q, rho, s, float(analytic.dominance_ratio(Q, rho, s)))
                for rho in rhos for s in ss]
        _emit_table(args, ("Q", "rho", "s", "ratio"), rows)
    else:
        lzs = _float_list(args, "--lambda-z") or [0.0, 1.0]
        rows = [(lz, analytic.variational_critical_q(lz)) for lz in lzs]
        _emit_table(args, ("lambda_z", "q_critical"), rows)
    return 0


def cmd_ground(args):
    Q, lambda_z = args.q, args.lambda_z
    grid = build_run_grid(args, Q, lambda_z)
    trap = TrapSpec(lambda_z)
    res = relax(default_initial(grid, trap, Q), trap, Q, _from_args(DescentConfig, args))
    out = Path(args.out)
    write_state_csv(out, res.wavefunction)
    write_csv(out.parent / (out.name + ".summary"), GROUND_SUMMARY_COLS,
              [ground_summary_row(Q, lambda_z, res)])
    write_manifest(out, args)
    log.info("ground state: converged=%s collapsed=%s iters=%d residual=%.3e",
             res.converged, res.collapsed, res.iterations, res.residual)
    return 0


def _snapshot_name(t) -> str:
    return f"snapshot_{t:g}"


def cmd_evolve(args):
    if args.geometry == "spherical":
        raise DomainError("evolve supports line and cylindrical geometry")
    cfg = _from_args(PropagationConfig, args)
    snap_times = sorted(_float_list(args, "--snapshot-times"))
    named = {}
    for t in snap_times:
        other = named.setdefault(_snapshot_name(t), t)
        if other != t:
            raise DomainError(f"snapshot times {other!r} and {t!r} would share the file "
                              f"name {_snapshot_name(t)}, which keeps 6 significant "
                              "digits")
    Q, lambda_z = args.q, args.lambda_z
    grid = build_run_grid(args, Q, lambda_z)
    trap = TrapSpec(lambda_z)
    # sampled before the initial state, so that a bad potential costs no relaxation;
    # the one propagator reuses the samples
    ext = None
    if args.potential:
        ext = ExternalPotential(parse_potential(args.potential), parse_params(args.param))
        ext.sample(grid)
        ext.sample_gradient_s(grid)
    if args.initial == "ground":
        res = relax(default_initial(grid, trap, Q), trap, Q, _from_args(DescentConfig, args))
        if not res.converged:
            raise DomainError("relaxation for the initial state did not converge; "
                              "tune the solver flags or pick --initial composite")
        u0 = res.wavefunction.normalized()
    elif args.initial == "composite":
        u0 = default_initial(grid, TrapSpec(0.0), Q)
    else:
        raise DomainError(f"unknown initial state {args.initial!r}")
    if args.displace:
        u0 = displace(u0, args.displace)
    if args.boost:
        u0 = boost(u0, args.boost)
    u0 = u0.normalized()
    records, snapshots, _, err = propagate(u0, trap, Q, ext, cfg, snap_times)
    out = Path(args.out)
    for t, u in zip(snap_times, snapshots):
        write_state_csv(out.parent / f"{out.stem}.{_snapshot_name(t)}.csv", u)
    write_csv(out, ObservableRecord.csv_columns(), [r.csv_row() for r in records])
    write_manifest(out, args, time_error=err)
    try:
        rep = ehrenfest_check(records, trap, ext)
        log.info("ehrenfest: |dX/dt - <P>| <= %.3e, |d2X/dt2 + <dV/ds>| <= %.3e%s",
                 rep.max_velocity_mismatch, rep.max_force_mismatch,
                 "" if rep.fitted_frequency is None else
                 f"; centroid frequency {rep.fitted_frequency:.6g} (trap {trap.lambda_z:g}), "
                 f"amplitude {rep.fitted_amplitude:.6g}")
    except DomainError as exc:
        log.info("ehrenfest check skipped: %s", exc)
    return 0


def cmd_collapse(args):
    cfg = _from_args(DescentConfig, args)
    bracket = (args.q_min, args.q_max)
    scan_lzs = _float_list(args, "--scan-lambda-z")
    if scan_lzs:
        runs = [(lz, build_run_grid(args, args.q_min, lz)) for lz in scan_lzs]
        scan = optimality_scan(runs, bracket, args.tol, cfg)
        table = scan.table
        log.info("optimality scan monotone non-increasing: %s",
                 scan.monotone_nonincreasing)
    else:
        grid = build_run_grid(args, args.q_min, args.lambda_z)
        thr = find_threshold(grid, args.lambda_z, bracket, args.tol, cfg)
        table = [(args.lambda_z, thr)]
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
    write_manifest(args.out, args)
    return 0


def cmd_figures(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.which == "fig1":
        Q, lzs = 5.0, (0.4, 0.2, 0.0)
    else:
        Q, lzs = 10.0, (0.0,)
    summary = []
    for lz in lzs:
        grid = build_run_grid(args, Q, lz)
        trap = TrapSpec(lz)
        res = relax(default_initial(grid, trap, Q), trap, Q, _from_args(DescentConfig, args))
        u = np.abs(res.wavefunction.values)
        overlay = analytic_state(grid, trap, Q)  # the relaxation's seed, unnormalized
        j0 = int(np.argmin(np.abs(grid.s)))
        tag = f"{args.which}_lz{lz:g}"
        write_csv(outdir / f"{tag}_s_section.csv", ("s", "abs_u", "abs_overlay"),
                  list(zip(grid.s, u[0, :], overlay[0, :])),
                  note=UNITS_NOTE + f"; section at rho = {grid.rho[0]:.6g} (first node)")
        write_csv(outdir / f"{tag}_rho_section.csv", ("rho", "abs_u", "abs_overlay"),
                  list(zip(grid.rho, u[:, j0], overlay[:, j0])),
                  note=UNITS_NOTE + f"; section at s = {grid.s[j0]:.6g} (node nearest 0)")
        summary.append(ground_summary_row(Q, lz, res))
    write_csv(outdir / f"{args.which}_summary.csv", GROUND_SUMMARY_COLS, summary)
    write_manifest(outdir / args.which, args)
    return 0


# --- argument table -----------------------------------------------------------
#
# One row per flag: it builds the parser, converts the config file's value and
# gives the default.  A bool row is a switch, a list row a repeatable flag; a row
# that several subcommands share is `_replace`d where one needs another default.

_REQUIRED = object()  # a default that the flag or the config file must replace

_Row = namedtuple("Row", "flag type default help", defaults=(None,))

_Q = _Row("--q", float, _REQUIRED)
_Q_LIST = _Q._replace(type=str, default=None, help="comma list of Q values")
_LAMBDA_Z = _Row("--lambda-z", float, None, "axial trap anisotropy (default 1 on "
                 "spherical grids, which model the isotropic trap, and 0 elsewhere)")
_S_EXTENT = _Row("--s-extent", float, None,
                 "axial half-extent (defaults to the soliton-width rule)")
_N_S = _Row("--n-s", int, 384)
_OUT = _Row("--out", str, _REQUIRED)
_QUIET = _Row("--quiet", bool, False)
_SECTION_ROWS = [_Row("--rho-max", float, 6.0), _Row("--n-rho", int, 96), _S_EXTENT, _N_S]
_GEOMETRY = _Row("--geometry", str, "cylindrical", "line | cylindrical | spherical")
_GRID_ROWS = [_GEOMETRY, *_SECTION_ROWS, _Row("--r-max", float, 6.0), _Row("--n-r", int, 512)]
_SOLVER_ROWS = [_Row("--max-iters", int, DescentConfig.max_iters),
                _Row("--residual-tol", float, DescentConfig.residual_tol)]

# name: (function, help, positional (name, choices) or None, rows)
_SUBCOMMANDS = {
    "units": (cmd_units, "physical <-> dimensionless conversion table", None, [
        _Row("--n", str, None, "comma list of particle numbers"),
        _Q_LIST,
        _Row("--a", float, units.LI7_SCATTERING_LENGTH, "scattering length in m (negative)"),
        _Row("--nu", float, 150.0, "radial frequency in Hz"),
        _Row("--mass-u", float, units.LI7_MASS_U, "atom mass in u"),
        _OUT._replace(default=None),
    ]),
    "analytic": (cmd_analytic, "closed-form tables",
                 ("what", ("profile", "width", "ratio", "variational")), [
        _Q_LIST,
        _LAMBDA_Z._replace(type=str, default=None, help="comma list of anisotropies"),
        _Row("--rho", str, None),
        _Row("--s", str, None),
        _S_EXTENT,
        _N_S._replace(default=None),
        _OUT._replace(default=None),
    ]),
    "ground": (cmd_ground, "relax to the ground state", None,
               [_Q, _LAMBDA_Z, *_GRID_ROWS, *_SOLVER_ROWS, _OUT]),
    "evolve": (cmd_evolve, "real-time propagation", None, [
        _Q._replace(default=5.0),
        _LAMBDA_Z,
        _GEOMETRY._replace(help="line | cylindrical"),
        *_SECTION_ROWS,
        *_SOLVER_ROWS,
        _Row("--initial", str, "ground", "ground (relax first) or composite"),
        _Row("--boost", float, 0.0),
        _Row("--displace", float, 0.0),
        _Row("--potential", str, None, "axial potential over s (and rho on cylindrical "
             "grids): numbers, parameters, + - * /, ^ for a power, parentheses and the "
             "functions " + " ".join(FUNCTIONS)),
        _Row("--param", list, None, "name=value binding for the potential (repeatable)"),
        _Row("--dt", float, PropagationConfig.dt, f"time step (default {PropagationConfig.dt:g}; "
             "time error <= 1e-3 of the lattice error: see manifest time_error)"),
        _Row("--t-final", float, _REQUIRED, "final time, a whole number of --dt steps"),
        _Row("--observe-every", int, PropagationConfig.observe_every, "steps per record (default "
             f"{PropagationConfig.observe_every}: tau = 0.01 per record at the default --dt)"),
        _Row("--sponge-width", float, PropagationConfig.sponge_width,
             "width of the absorbing layer at each axial edge (default 0: none)"),
        _Row("--snapshot-times", str, None,
             "comma list of times in [0, --t-final] at which to write state "
             "snapshots; a time between two steps is reached by one partial step from "
             "the earlier; a snapshot adds no CSV row and changes none"),
        _OUT,
    ]),
    "collapse": (cmd_collapse, "critical Q by bisection", None, [
        _LAMBDA_Z,
        *_GRID_ROWS,
        *_SOLVER_ROWS,
        _Row("--q-min", float, 10.0),
        _Row("--q-max", float, 25.0),
        _Row("--tol", float, 0.5),
        _Row("--scan-lambda-z", str, None, "comma list of anisotropies for an optimality scan"),
        _OUT,
    ]),
    "figures": (cmd_figures, "section datasets for the two figures", ("which", ("fig1", "fig2")),
                [*_SECTION_ROWS, *_SOLVER_ROWS, _OUT]),
}


@functools.cache
def build_parser():
    """The parser and its subparsers by name, built from _SUBCOMMANDS.

    Built once per process and shared by every `main` call.  It has no
    defaults of its own (`func` aside): a parse returns only the flags given,
    so parsing leaves it unchanged and no value reaches another call.
    """
    parser = argparse.ArgumentParser(
        prog="gpesoliton", allow_abbrev=False,
        description="Attractive-condensate soliton toolkit (CSV outputs)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, summary, positional, rows) in _SUBCOMMANDS.items():
        # no prefixes: a removed flag such as --n-r must not pass for --n-rho
        p = sub.add_parser(name, help=summary, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="flat key = value file; flags override it")
        if positional:
            p.add_argument(positional[0], choices=positional[1])
        for row in (_QUIET, *rows):
            kw = ({"action": "store_true"} if row.type is bool else
                  {"action": "append"} if row.type is list else {"type": row.type})
            p.add_argument(row.flag, help=row.help, **kw)
        p.set_defaults(func=fn)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, _ = build_parser()
    given = vars(parser.parse_args(argv))
    try:
        rows = (_QUIET, *_SUBCOMMANDS[given["command"]][3])
        config = given.pop("config", None)
        args = argparse.Namespace(**{_dest(row.flag): row.default for row in rows}
                                  | (load_config(config, rows) if config else {}) | given)
        for row in rows:
            value = getattr(args, _dest(row.flag))
            if value is _REQUIRED:
                raise DomainError(f"{args.command} requires {row.flag}")
            if row.type is float and value is not None:
                require(row.flag, value)
        if _LAMBDA_Z in rows and args.lambda_z is None:  # the default follows the geometry
            args.lambda_z = 1.0 if args.geometry == "spherical" else 0.0
        # basicConfig acts on the first call in a process only; the level is set on every call
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("gpesoliton").setLevel(logging.WARNING if args.quiet else logging.INFO)
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

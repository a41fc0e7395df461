import io
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpesoliton import cli
from gpesoliton import grid as grid_module
from gpesoliton import potentials
from gpesoliton.grid import Geometry, Wavefunction, cylindrical_grid, line_grid, spherical_grid


def reference_csv(path, columns, rows, note=cli.UNITS_NOTE):
    """Each value formatted on its own, bools as 1/0 and integers in digits:
    the bytes that write_csv must reproduce."""
    def fmt(x):
        if isinstance(x, bool):
            return "1" if x else "0"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return "%.17g" % x

    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {note}\n" + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def row_loop_state_csv(path, u):
    """The node-by-node writer that write_state_csv replaced; the byte reference."""
    grid = u.grid
    rows = []
    if grid.kind is Geometry.CYLINDRICAL:
        for i, rho in enumerate(grid.rho):
            for j, s in enumerate(grid.s):
                v = u.values[i, j]
                rows.append((rho, s, v.real, v.imag))
    elif grid.kind is Geometry.LINE:
        for j, s in enumerate(grid.s):
            v = u.values[j]
            rows.append((float("nan"), s, v.real, v.imag))
    else:
        for i, r in enumerate(grid.r):
            v = u.values[i]
            rows.append((r, float("nan"), v.real, v.imag))
    note = cli.UNITS_NOTE + "; rho column holds r on spherical grids, nan on line grids"
    reference_csv(path, ("rho", "s", "re_u", "im_u"), rows, note=note)


@pytest.mark.parametrize("grid", [
    line_grid(-5.0, 5.0, 16),
    cylindrical_grid(3.0, -4.0, 4.0, 16, 20),
    spherical_grid(4.0, 16),
], ids=lambda g: g.kind.value)
def test_state_csv_matches_row_loop(tmp_path, grid):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    values.flat[0] = -0.0 + 1e-300j  # a signed zero and a three-digit exponent
    u = Wavefunction(grid, values)
    cli.write_state_csv(tmp_path / "new.csv", u)
    row_loop_state_csv(tmp_path / "ref.csv", u)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_ndarray_table_matches_row_path(tmp_path):
    # several blocks and a partial last one; runs of equal values cross the
    # block edges; signed zeros share a column with nan, infinities, the
    # smallest subnormal and three-digit exponents
    block = cli._BLOCK_ROWS
    n = 3 * block + block // 2 + 1
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-300,
                        -1e-300, 1.0])
    table = np.column_stack((
        rng.standard_normal(7)[np.arange(n) * 7 // n],
        np.resize(special, n),
        rng.standard_normal(n),
        rng.choice([-0.0, 0.0, 2.5], n),
    ))
    cli.write_csv(tmp_path / "table.csv", ("a", "b", "c", "d"), table)
    reference_csv(tmp_path / "rows.csv", ("a", "b", "c", "d"), table.tolist())
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # rows of Python values, as the summary and collapse tables pass them
    rows = [(True, 251, float("nan"), 0.1), (False, 0, -0.0, 1e-300), (1.0, -7, 2.5, 5e-324)]
    cli.write_csv(tmp_path / "mixed.csv", ("a", "b", "c", "d"), rows)
    reference_csv(tmp_path / "mixed_ref.csv", ("a", "b", "c", "d"), rows)
    assert (tmp_path / "mixed.csv").read_bytes() == (tmp_path / "mixed_ref.csv").read_bytes()


def test_table_matches_per_value_format():
    # the distinct values of a block column are formatted by one `%`
    # operation; the text is that of `'%.17g' % x` for each value on its own
    rows = [(-0.0, float("nan"), float("inf"), float("-inf"), True, False, 251, -7, 2 ** 60,
             0.1, 5e-324, -1e-300)] * 3 + [(0.0, 1.0, -0.0, 1e300, 1, 0, 2.5, 1e-5, -3, 1e16,
                                           123456789.123, 1 / 3)]
    buf = io.StringIO()
    cli._write_table(buf, [f"c{k}" for k in range(12)], rows, "note")
    expected = "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows)
    assert buf.getvalue() == "# note\n" + ",".join(f"c{k}" for k in range(12)) + "\n" + expected


def test_ground_writes_outputs(tmp_path):
    out = tmp_path / "g.csv"
    argv = ["ground", "--q", "5", "--geometry", "line", "--n-s", "128", "--quiet",
            "--out", str(out)]
    assert cli.main(argv) == 0
    for name in ("g.csv", "g.csv.summary", "g.csv.manifest"):
        assert (tmp_path / name).stat().st_size > 0
    lines = (tmp_path / "g.csv.summary").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["converged"] == "1" and row["collapsed"] == "0"
    assert float(row["mu"]) == pytest.approx(-25 / (128 * math.pi ** 2), rel=5e-3)
    manifest = (tmp_path / "g.csv.manifest").read_text().splitlines()
    assert f"numpy = {np.__version__}" in manifest
    lapack = "scipy" if grid_module._bundled_lapack() is None else "numpy-openblas"
    assert f"lapack = {lapack}" in manifest


def test_manifest_names_the_scipy_fallback(tmp_path, monkeypatch):
    monkeypatch.setattr(grid_module, "_bundled_lapack", lambda: None)
    out = tmp_path / "g.csv"
    argv = ["ground", "--q", "5", "--geometry", "line", "--n-s", "128", "--quiet",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert "lapack = scipy" in (tmp_path / "g.csv.manifest").read_text().splitlines()


def test_unknown_geometry_fails(tmp_path, capsys):
    argv = ["ground", "--q", "5", "--geometry", "torus", "--out", str(tmp_path / "g.csv")]
    assert cli.main(argv) == 1
    assert "unknown geometry 'torus'" in capsys.readouterr().err


@pytest.mark.parametrize("potential", ["(" * 300 + "s" + ")" * 300, "1 + * 2"],
                         ids=["nested-300-deep", "syntax"])
def test_bad_potential_fails(tmp_path, capsys, potential):
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "composite",
            "--t-final", "0.05", "--potential", potential, "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: at byte ")
    assert not (tmp_path / "e.csv").exists()


def test_collapse_probe_without_verdict_fails(tmp_path, capsys):
    # at max_iters = 10 the probe at Q = 13.75 (13 iterations to converge)
    # neither converges nor collapses
    argv = ["collapse", "--geometry", "spherical", "--n-r", "96", "--tol", "0.5",
            "--max-iters", "10", "--out", str(tmp_path / "c.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no verdict at Q = 13.75 ") and "max_iters = 10" in err
    assert not (tmp_path / "c.csv").exists()


def test_unknown_initial_state_fails(tmp_path, capsys):
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "gaussian",
            "--t-final", "0.05", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: unknown initial state 'gaussian'")
    assert not (tmp_path / "e.csv").exists()


def test_aliasing_boost_fails(tmp_path, capsys):
    # ds = 0.855 on 64 nodes: pi/(2 ds) = 1.838
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "composite",
            "--t-final", "0.05", "--boost", "1.9", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: boost |v| = 1.9 must stay below")
    assert not (tmp_path / "e.csv").exists()


def test_ehrenfest_runs_with_off_cadence_snapshot(tmp_path, caplog):
    # the snapshot at 0.335 (step 670) is off the 20-step sampling cadence: it
    # splits the step sequence but adds no row, so one check covers the whole run
    caplog.set_level(logging.INFO)
    argv = ["evolve", "--geometry", "line", "--q", "5", "--initial", "composite",
            "--dt", "5e-4", "--observe-every", "20",
            "--t-final", "0.5", "--snapshot-times", "0.335", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    checks = [r.getMessage() for r in caplog.records if "ehrenfest" in r.getMessage()]
    assert len(checks) == 1
    assert "skipped" not in checks[0]
    assert (tmp_path / "e.snapshot_0.335.csv").exists()
    lines = (tmp_path / "e.csv").read_text().splitlines()[1:]
    col = lines[0].split(",").index("tau")
    taus = [float(line.split(",")[col]) for line in lines[1:]]
    assert taus == pytest.approx([k * 5e-4 for k in range(0, 1001, 20)], abs=1e-15)


TINY_EVOLVE = ["evolve", "--q", "5", "--lambda-z", "0", "--initial", "composite",
               "--boost", "0.5", "--t-final", "0.05", "--geometry", "cylindrical",
               "--rho-max", "6", "--n-rho", "16", "--n-s", "64",
               "--s-extent", "27.35145003726747", "--quiet"]


def test_off_lattice_snapshot_leaves_the_records_unchanged(tmp_path):
    # 0.025 lies halfway between steps 2 and 3 of the default dt = 0.01
    assert cli.main(TINY_EVOLVE + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert cli.main(TINY_EVOLVE + ["--snapshot-times", "0.025",
                                   "--out", str(tmp_path / "snap.csv")]) == 0
    assert (tmp_path / "snap.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert (tmp_path / "snap.snapshot_0.025.csv").exists()


def test_off_lattice_snapshot_matches_a_run_whose_lattice_holds_it(tmp_path):
    # one partial step from step 2 of dt = 0.01 against step 5 of dt = 0.005
    argv = TINY_EVOLVE + ["--snapshot-times", "0.025"]
    assert cli.main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert cli.main(argv + ["--dt", "0.005", "--observe-every", "2",
                            "--out", str(tmp_path / "b.csv")]) == 0
    a, b = (np.loadtxt(tmp_path / f"{x}.snapshot_0.025.csv", delimiter=",", skiprows=2)
            for x in "ab")
    assert np.array_equal(a[:, :2], b[:, :2])
    manifest = (tmp_path / "a.csv.manifest").read_text()
    (time_error,) = (float(line.split(" = ")[1]) for line in manifest.splitlines()
                     if line.startswith("time_error = "))
    dv = (a[:, 2] - b[:, 2]) + 1j * (a[:, 3] - b[:, 3])
    diff = cylindrical_grid(6.0, -27.35145003726747, 27.35145003726747, 16, 64).norm(
        dv.reshape(16, 64))
    # time_error estimates the error at t_final = 0.05, twice the snapshot's time
    assert 0.0 < diff <= time_error


def test_snapshot_times_sharing_a_file_name_rejected(tmp_path, capsys):
    argv = TINY_EVOLVE + ["--snapshot-times", "0.02000001,0.02", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: snapshot times 0.02 and 0.02000001 would share the file "
                          "name snapshot_0.02")
    assert list(tmp_path.iterdir()) == []


def test_snapshot_time_beyond_t_final_rejected(tmp_path, capsys):
    argv = TINY_EVOLVE + ["--snapshot-times", "0.02,0.0500001", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: snapshot times must lie within [0, t_final]\n"
    assert list(tmp_path.iterdir()) == []


def test_off_lattice_t_final_rejected(tmp_path, capsys):
    # 0.50021 lies between steps 1000 and 1001 of dt = 5e-4
    argv = ["evolve", "--geometry", "line", "--n-s", "256", "--q", "5", "--initial",
            "composite", "--dt", "5e-4", "--t-final", "0.50021", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "t_final 0.50021 is off the dt = 0.0005 lattice" in err
    assert "nearest lattice times are 0.5 and 0.5005" in err
    assert not (tmp_path / "e.csv").exists()


IMPORT_PROBE = """
import sys
import numpy as np
import gpesoliton.cli
from gpesoliton import grid
if {force_fallback}:
    grid._bundled_lapack = lambda: None
grid.TridiagonalFactor(-1.0, np.full(16, 4.0), -1.0).solve(np.ones(16))
grid.cylindrical_grid(3.0, -4.0, 4.0, 16, 20).radial_modes
print("scipy" if grid._bundled_lapack() is None else "numpy-openblas",
      *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_loads_no_scipy():
    # with the numpy wheel's OpenBLAS, the CLI and its tridiagonal solves load
    # no scipy at all; the scipy fallback loads scipy.linalg and nothing else
    # public.  No other module imports scipy.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    found = "scipy" if grid_module._bundled_lapack() is None else "numpy-openblas"
    for force_fallback in (False, True):
        out = subprocess.run([sys.executable, "-c",
                              IMPORT_PROBE.format(force_fallback=force_fallback)],
                             env=env, capture_output=True, text=True, check=True,
                             timeout=120).stdout
        lapack, *loaded = out.split()
        assert lapack == ("scipy" if force_fallback else found)
        if lapack == "numpy-openblas":
            assert loaded == []
        else:
            public = {m.split(".")[1] for m in loaded
                      if "." in m and not m.split(".")[1].startswith("_")}
            assert public == {"linalg", "version"}


EVOLVE_PROBE = """
import sys
from gpesoliton import cli, grid
cli.main(sys.argv[1:])
print("scipy" if grid._bundled_lapack() is None else "numpy-openblas",
      *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_trapped_displaced_evolve_loads_no_scipy(tmp_path):
    # displace's spline and the Ehrenfest frequency fit (a run over one trap
    # period, 33 records) use numpy and the package's tridiagonal solver only
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--s-extent", "12",
            "--lambda-z", "1", "--initial", "ground", "--displace", "0.5",
            "--t-final", "6.4", "--dt", "0.02", "--observe-every", "10",
            "--out", str(tmp_path / "e.csv")]
    run = subprocess.run([sys.executable, "-c", EVOLVE_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert "ehrenfest: " in run.stderr and "centroid frequency" in run.stderr
    lapack, *loaded = run.stdout.splitlines()[-1].split()
    if lapack == "numpy-openblas":
        assert loaded == []
    else:
        assert {m.split(".")[1] for m in loaded
                if "." in m and not m.split(".")[1].startswith("_")} == {"linalg", "version"}


def test_short_trapped_run_reports_ehrenfest(tmp_path, caplog):
    # 10 steps, far less than the 10 pi trap period: too short to fit the
    # frequency, but the velocity and force mismatches are still reported
    caplog.set_level(logging.INFO)
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--lambda-z", "0.2",
            "--initial", "ground", "--displace", "0.5", "--t-final", "0.05",
            "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    checks = [r.getMessage() for r in caplog.records if "ehrenfest" in r.getMessage()]
    assert len(checks) == 1
    assert checks[0].startswith("ehrenfest: ") and "frequency" not in checks[0]


def test_bad_potential_fails_before_the_relaxation(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "relax", lambda *a, **k: calls.append(a))
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "ground",
            "--t-final", "0.05", "--potential", "1 + * 2", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    assert calls == []


def test_non_finite_potential_fails_before_the_relaxation(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "relax", lambda *a, **k: calls.append(a))
    argv = ["evolve", "--q", "5", "--lambda-z", "0.2", "--initial", "ground", "--t-final",
            "0.05", "--potential", "exp(1000*s)", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    assert "potential 'exp(1000*s)' is non-finite at node" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("width", ["100", "1e300"])
def test_overlapping_sponge_layers_fail_with_no_csv(tmp_path, capsys, width):
    # the default box of Q = 5 is 54.7 long: these layers would damp the soliton itself
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "composite",
            "--t-final", "0.05", "--sponge-width", width, "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: sponge layers of width {float(width):g} "
                                       "overlap in the axial extent 54.7029\n")
    assert not any(tmp_path.iterdir())


def test_evolve_evaluates_the_potential_once_per_field(tmp_path, monkeypatch):
    # V and dV/ds, for the time-error estimate and the run alike
    calls, evaluate = [], potentials._eval
    monkeypatch.setattr(potentials, "_eval", lambda *a: calls.append(a) or evaluate(*a))
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "ground",
            "--t-final", "0.05", "--potential", "a*s^2", "--param", "a=0.01",
            "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    assert len(calls) == 2


def test_one_eigendecomposition_per_grid(tmp_path, monkeypatch):
    # the relaxation's preconditioner and the propagator share one radial eigenbasis
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    argv = ["evolve", "--geometry", "cylindrical", "--n-rho", "16", "--n-s", "64",
            "--lambda-z", "0.5", "--initial", "ground", "--t-final", "0.05", "--quiet",
            "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_one_propagator_per_evolve_run(tmp_path, monkeypatch):
    # the time error's steps and the partial step of the snapshot between two steps
    # run on the propagator of the run
    from gpesoliton import dynamics

    built, init = [], dynamics._Propagator.__init__
    monkeypatch.setattr(dynamics._Propagator, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    argv = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "composite",
            "--t-final", "0.05", "--snapshot-times", "0.015", "--quiet",
            "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    assert (tmp_path / "e.snapshot_0.015.csv").exists()
    assert len(built) == 1


def test_lambda_scan_runs_on_the_manifest_grid(tmp_path, monkeypatch):
    from gpesoliton import collapse

    used, find_threshold = [], collapse.find_threshold

    def recording_find_threshold(grid, *args, **kwargs):
        used.append(grid.extents)
        return find_threshold(grid, *args, **kwargs)

    monkeypatch.setattr(collapse, "find_threshold", recording_find_threshold)
    out = tmp_path / "scan.csv"
    argv = ["collapse", "--scan-lambda-z", "0.5,1", "--n-rho", "16", "--n-s", "48",
            "--rho-max", "5", "--q-min", "10", "--q-max", "25", "--tol", "8", "--quiet",
            "--out", str(out)]
    assert cli.main(argv) == 0
    manifest = dict(line.split(" = ", 1) for line in
                    (tmp_path / "scan.csv.manifest").read_text().splitlines()[1:])
    assert len(used) == 2
    for lz, extents in zip((0.5, 1.0), used):
        half = grid_module.default_half_extent_s(10.0, lz)
        assert extents == {"rho_max": float(manifest["rho_max"]), "s_min": -half,
                           "s_max": half, "n_rho": int(manifest["n_rho"]),
                           "n_s": int(manifest["n_s"])}
    assert (manifest["rho_max"], manifest["n_rho"], manifest["n_s"]) == ("5", "16", "48")


@pytest.mark.parametrize("which, Q, lzs", [("fig1", 5.0, (0.4, 0.2, 0.0)),
                                            ("fig2", 10.0, (0.0,))])
def test_figure_overlays_are_the_analytic_profiles(tmp_path, which, Q, lzs):
    # each overlay is the analytic profile at its section's nodes, bit for bit: the
    # trap Gaussian on a trapped axis, the sech x Gaussian soliton on a free one
    from gpesoliton import analytic

    argv = ["figures", which, "--n-rho", "16", "--n-s", "48", "--quiet", "--out", str(tmp_path)]
    assert cli.main(argv) == 0

    def columns(name):
        lines = (tmp_path / name).read_text().splitlines()[2:]
        return np.array([[float(x) for x in line.split(",")] for line in lines]).T

    for lz in lzs:
        s, _, overlay_s = columns(f"{which}_lz{lz:g}_s_section.csv")
        rho, _, overlay_rho = columns(f"{which}_lz{lz:g}_rho_section.csv")
        s0 = s[np.argmin(np.abs(s))]  # the node nearest 0, where the rho section lies
        if lz > 0:
            def profile(r, z):
                return analytic.gaussian_ground_state(lz, r, z)
        else:
            def profile(r, z):
                return analytic.composite_profile(Q, r, z)
        assert np.array_equal(overlay_s, profile(rho[0], s))
        assert np.array_equal(overlay_rho, profile(rho, s0))


def test_analytic_profile_takes_a_numeric_q(tmp_path):
    from gpesoliton import analytic

    out = tmp_path / "profile.csv"
    assert cli.main(["analytic", "profile", "--q", "7", "--quiet", "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", comments="#", skiprows=2)
    assert np.all(table[:, 0] == 7.0)
    assert np.array_equal(table[:, 2], analytic.soliton_profile(7.0, table[:, 1]))


@pytest.mark.parametrize("what,q", [("profile", "5,6"), ("ratio", ","), ("width", "abc")])
def test_analytic_bad_q_fails(what, q, capsys):
    assert cli.main(["analytic", what, "--q", q, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags", [
    ["--s-extent", "0"], ["--s-extent", "-3"], ["--s-extent", "inf"], ["--s-extent", "nan"],
    ["--n-s", "1"], ["--n-s", "15"],
], ids=" ".join)
def test_analytic_profile_bad_grid_fails(flags, capsys):
    assert cli.main(["analytic", "profile", "--q", "5", "--quiet"] + flags) == 1
    assert capsys.readouterr().err.startswith("error:")


# --- configuration: the flag table, config files and manifests ----------------

# One run per subcommand and per analytic table, and its manifest without the
# numpy, lapack and out lines, as written before the flags were declared in one
# table, less the keys of the flags removed since (units lambda_z and
# frequency_convention, figures geometry/r_max/n_r, evolve r_max/n_r and
# sponge_strength, and step_size, energy_tol and collapse_guard everywhere).
# A change to how flags, defaults and config files resolve must not move any
# of these values.
GOLDEN_MANIFESTS = {
    "units": (["units", "--n", "1000,2000", "--q", "5"], """\
a = -1.45e-09
command = units
mass_u = 7.0160030000000004
n = 1000,2000
nu = 150
q = 5
quiet = True"""),
    "analytic-profile": (["analytic", "profile"], """\
command = analytic
lambda_z = None
n_s = 512
q = 5
quiet = True
rho = None
s = None
s_extent = None
what = profile"""),
    "analytic-width": (["analytic", "width", "--q", "2,4"], """\
command = analytic
lambda_z = None
n_s = None
q = 2,4
quiet = True
rho = None
s = None
s_extent = None
what = width"""),
    "analytic-ratio": (["analytic", "ratio", "--rho", "1"], """\
command = analytic
lambda_z = None
n_s = None
q = 5
quiet = True
rho = 1
s = None
s_extent = None
what = ratio"""),
    "analytic-variational": (["analytic", "variational", "--lambda-z", "0,0.5"], """\
command = analytic
lambda_z = 0,0.5
n_s = None
q = None
quiet = True
rho = None
s = None
s_extent = None
what = variational"""),
    "ground": (["ground", "--q", "5", "--geometry", "line", "--n-s", "128"], """\
command = ground
geometry = line
lambda_z = 0
max_iters = 200000
n_r = 512
n_rho = 96
n_s = 128
q = 5
quiet = True
r_max = 6
residual_tol = 1.0000000000000001e-05
rho_max = 6
s_extent = None"""),
    "evolve": (["evolve", "--geometry", "line", "--n-s", "64", "--initial", "composite",
                "--t-final", "0.05", "--snapshot-times", "0.02", "--potential", "a*s^2",
                "--param", "a=0.01"], """\
boost = 0
command = evolve
displace = 0
dt = 0.01
geometry = line
initial = composite
lambda_z = 0
max_iters = 200000
n_rho = 96
n_s = 64
observe_every = 1
param = ['a=0.01']
potential = a*s^2
q = 5
quiet = True
residual_tol = 1.0000000000000001e-05
rho_max = 6
s_extent = None
snapshot_times = 0.02
sponge_width = 0
t_final = 0.050000000000000003"""),
    "collapse": (["collapse", "--lambda-z", "0.5", "--n-rho", "16", "--n-s", "48",
                  "--tol", "8"], """\
command = collapse
geometry = cylindrical
lambda_z = 0.5
max_iters = 200000
n_r = 512
n_rho = 16
n_s = 48
q_max = 25
q_min = 10
quiet = True
r_max = 6
residual_tol = 1.0000000000000001e-05
rho_max = 6
s_extent = None
scan_lambda_z = None
tol = 8"""),
    "figures": (["figures", "fig2", "--n-rho", "16", "--n-s", "48"], """\
command = figures
max_iters = 200000
n_rho = 16
n_s = 48
quiet = True
residual_tol = 1.0000000000000001e-05
rho_max = 6
s_extent = None
which = fig2"""),
}


def manifest_lines(path):
    """The `key = value` lines of a manifest, without numpy, lapack and out."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == f"# gpesoliton {cli.__version__} resolved configuration"
    return [line for line in lines[1:] if line.split(" = ")[0] not in ("numpy", "lapack", "out")]


@pytest.mark.parametrize("name", GOLDEN_MANIFESTS)
def test_manifest_matches_golden(tmp_path, name):
    argv, expected = GOLDEN_MANIFESTS[name]
    out = tmp_path / "out"
    assert cli.main(argv + ["--quiet", "--out", str(out)]) == 0
    manifest = out / "fig2.manifest" if name == "figures" else tmp_path / "out.manifest"
    lines = manifest_lines(manifest)
    # evolve's measured time-error estimate: present and small, its digits not pinned
    measured = [line for line in lines if line.startswith("time_error = ")]
    assert len(measured) == (name == "evolve")
    for line in measured:
        lines.remove(line)
        assert 0.0 <= float(line.split(" = ")[1]) < 1e-4
    assert "\n".join(lines) == expected


def run_outputs(run_dir, argv):
    """Run `argv` in an empty `run_dir`; the bytes of every file it wrote there."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}


@pytest.mark.parametrize("flags,config", [
    (["ground", "--q", "5", "--geometry", "line", "--n-s", "128", "--residual-tol", "1e-6",
      "--quiet"],
     "q = 5\ngeometry = line  # a comment\nn-s = 128\nresidual_tol = 1e-6\nquiet = yes\n"),
    (["evolve", "--geometry", "line", "--n-s", "64", "--q", "4", "--initial", "composite",
      "--boost", "0.2", "--t-final", "0.05", "--snapshot-times", "0.02",
      "--potential", "a*s^2 + b*s", "--param", "a=0.01", "--param", "b=0.001", "--quiet"],
     "geometry = line\nn_s = 64\nq = 4\ninitial = composite\nboost = 0.2\nt-final = 0.05\n"
     "snapshot_times = 0.02\npotential = a*s^2 + b*s\nparam = a=0.01, b=0.001\nquiet = 1\n"),
], ids=["ground", "evolve"])
def test_config_file_matches_flags(tmp_path, flags, config):
    run_dir = tmp_path / "run"
    out = str(run_dir / "x.csv")
    by_flags = run_outputs(run_dir, flags + ["--out", out])
    cfg = tmp_path / "x.cfg"
    cfg.write_text(config + f"out = {out}\n")
    by_file = run_outputs(run_dir, [flags[0], "--config", str(cfg)])
    assert len(by_flags) >= 3
    assert by_file == by_flags


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("geometry = line\nn_s = 64\nq = 5\ninitial = composite\nt_final = 0.02\n"
                   "potential = a*s^2\nparam = a=0.01\n")
    base = ["evolve", "--config", str(cfg), "--quiet"]
    assert cli.main(base + ["--out", str(tmp_path / "file.csv")]) == 0
    lines = manifest_lines(tmp_path / "file.csv.manifest")
    assert "q = 5" in lines and "param = ['a=0.01']" in lines
    # a repeated --param replaces the file's list rather than appending to it
    assert cli.main(base + ["--q", "6", "--param", "a=0.02", "--out",
                            str(tmp_path / "flag.csv")]) == 0
    lines = manifest_lines(tmp_path / "flag.csv.manifest")
    assert "q = 6" in lines and "param = ['a=0.02']" in lines


def parser_defaults(parser, subparsers):
    """Every default of the parser and of each subparser, by subcommand and dest."""
    return {name: {a.dest: p.get_default(a.dest) for a in p._actions} | p._defaults
            for name, p in [("", parser), *subparsers.items()]}


def test_config_values_reach_no_later_call(tmp_path, capsys):
    # the parser is shared by the calls of a process; a file's values must stay in its call
    shared = cli.build_parser()
    before = parser_defaults(*shared)
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"q = 5\nout = {tmp_path / 'file.csv'}\n")
    assert cli.main(["ground", "--config", str(cfg), "--geometry", "line", "--n-s", "64",
                     "--quiet"]) == 0
    assert (tmp_path / "file.csv").exists()
    capsys.readouterr()
    assert cli.main(["ground", "--geometry", "line", "--n-s", "64",
                     "--out", str(tmp_path / "flag.csv")]) == 1
    assert capsys.readouterr().err == "error: ground requires --q\n"
    assert not (tmp_path / "flag.csv").exists()
    assert cli.build_parser() is shared
    assert parser_defaults(*shared) == before


def test_rejected_call_leaves_the_next_one_as_in_a_fresh_process(tmp_path, capsys):
    run_dir = tmp_path / "run"
    argv = ["ground", "--q", "5", "--geometry", "line", "--n-s", "64", "--quiet",
            "--out", str(run_dir / "g.csv")]
    run_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "gpesoliton.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fresh = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    with pytest.raises(SystemExit) as exc:
        cli.main(["ground", "--q", "7", "--n-s", "32", "--bogus", "1",
                  "--out", str(run_dir / "g.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert len(fresh) >= 3
    assert run_outputs(run_dir, argv) == fresh


@pytest.mark.parametrize("argv,text,key", [
    (["ground", "--q", "5"], "bogus = 1\n", "bogus"),
    (["analytic", "profile"], "what = width\n", "what"),
    (["figures", "fig1"], "which = fig2\n", "which"),
    (["ground", "--q", "5"], "step_size = 1\n", "step_size"),
], ids=["ground-bogus", "analytic-what", "figures-which", "ground-step-size"])
def test_config_unknown_key_fails(tmp_path, capsys, argv, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config keys: {key}; known: ")
    known = err.split("known: ", 1)[1].strip().split(", ")
    assert {"out", "quiet"} <= set(known) and key not in known
    assert not (tmp_path / "o").exists()


def test_config_bad_value_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_s = abc\n")
    argv = ["ground", "--q", "5", "--config", str(cfg), "--out", str(tmp_path / "g.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ("error: config key n_s: invalid literal for int() "
                                       "with base 10: 'abc'\n")


@pytest.mark.parametrize("text,quiet", [("1", True), ("TRUE", True), ("Yes", True),
                                        ("0", False), ("false", False), ("NO", False),
                                        ("ture", None), ("on", None), ("", None)])
def test_config_bool_takes_only_its_words(tmp_path, capsys, text, quiet):
    # a typo such as "ture" once read as False
    (tmp_path / "b.cfg").write_text(f"quiet = {text}\n")
    if quiet is not None:
        assert cli.load_config(tmp_path / "b.cfg", [cli._QUIET]) == {"quiet": quiet}
        return
    argv = ["ground", "--q", "5", "--config", str(tmp_path / "b.cfg"),
            "--out", str(tmp_path / "g.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ("error: config key quiet: expected 1/0, true/false "
                                       f"or yes/no, got {text!r}\n")
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["ground", "--q", "5"], "ground requires --out"),
    (["ground", "--out", "{tmp}/g.csv"], "ground requires --q"),
    (["evolve", "--out", "{tmp}/e.csv"], "evolve requires --t-final"),
    (["collapse"], "collapse requires --out"),
    (["figures", "fig1"], "figures requires --out"),
], ids=["ground-out", "ground-q", "evolve-t-final", "collapse-out", "figures-out"])
def test_required_value_missing_fails(tmp_path, capsys, argv, message):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


_EVOLVE = ["evolve", "--geometry", "line", "--n-s", "64", "--initial", "composite"]


@pytest.mark.parametrize("argv,flag", [
    (["collapse", "--geometry", "spherical", "--n-r", "48", "--tol", "nan"], "--tol"),
    (_EVOLVE + ["--t-final", "nan"], "--t-final"),
    (_EVOLVE + ["--t-final", "inf"], "--t-final"),
    (_EVOLVE + ["--t-final", "0.05", "--dt", "nan"], "--dt"),
    (_EVOLVE + ["--t-final", "0.05", "--snapshot-times", "nan"], "--snapshot-times"),
    # a=inf would leave no well at all: the value is named, not a node of the grid
    (_EVOLVE + ["--t-final", "0.05", "--potential", "exp(-a*s^2)", "--param", "a=inf"],
     "error: --param a must be a finite number, got inf\n"),
    (_EVOLVE + ["--t-final", "0.05", "--potential", "exp(-a*s^2)", "--param", "a=nan"],
     "error: --param a must be a finite number, got nan\n"),
    (["analytic", "variational", "--lambda-z", "nan"], "--lambda-z"),
    (["analytic", "width", "--q", "nan"], "--q"),
    (["units", "--n", "nan"], "--n"),
    (["ground", "--geometry", "line", "--n-s", "64", "--q", "nan"], "--q"),
    (["ground", "--geometry", "line", "--n-s", "64", "--q", "5", "--s-extent", "nan"],
     "--s-extent"),
    (["ground", "--geometry", "spherical", "--n-r", "48", "--q", "5", "--r-max", "nan"],
     "--r-max"),
    (["ground", "--geometry", "line", "--n-s", "64", "--q", "5", "--lambda-z", "nan"],
     "--lambda-z"),
    # finite values whose a0 or step count is not: m*omega underflows to 0 (a0 would
    # be inf), or overflows (a0 would be 0, and N = 0 for Q = 5), or 1e308 / dt does
    (["units", "--n", "5", "--nu", "1e-310"],
     "error: oscillator length a0 must be a finite number > 0, got inf\n"),
    (["units", "--q", "5", "--nu", "1e300", "--mass-u", "1e300"],
     "error: oscillator length a0 must be a finite number > 0, got 0.0\n"),
    (_EVOLVE + ["--t-final", "0.05", "--snapshot-times", "1e308"],
     "error: snapshot time / dt must be a finite number, got inf\n"),
    # finite extents whose cells' 1/d^2 or measure d^dim (dim = 1 along s, 2 for rho,
    # 3 for r) is not: the grid names the axis
    (["ground", "--geometry", "line", "--n-s", "64", "--q", "5", "--s-extent", "1e-200"],
     "error: the s axis's cells of size 3.125e-202 put 1/d^2 = inf or d^1 = 3.125e-202 "
     "outside the float range\n"),
    (["ground", "--geometry", "line", "--n-s", "64", "--q", "5", "--s-extent", "1e200"],
     "error: the s axis's cells of size 3.125e+198 put 1/d^2 = 0 or d^1 = 3.125e+198 "
     "outside the float range\n"),
    (["ground", "--geometry", "spherical", "--n-r", "32", "--q", "5", "--r-max", "1e200"],
     "error: the r axis's cells of size 3.125e+198 put 1/d^2 = 0 or d^3 = inf "
     "outside the float range\n"),
    (["ground", "--geometry", "cylindrical", "--n-rho", "16", "--n-s", "32", "--q", "5",
      "--rho-max", "1e-200"],
     "error: the rho axis's cells of size 6.25e-202 put 1/d^2 = inf or d^2 = 0 "
     "outside the float range\n"),
], ids=["collapse-tol", "evolve-t-final-nan", "evolve-t-final-inf", "evolve-dt",
        "evolve-snapshot-times", "evolve-param-inf", "evolve-param-nan", "analytic-lambda-z",
        "analytic-q", "units-n", "ground-q", "ground-s-extent", "ground-r-max",
        "ground-lambda-z", "units-nu-underflow", "units-mass-nu-overflow",
        "evolve-snapshot-1e308", "ground-s-extent-tiny", "ground-s-extent-huge",
        "ground-r-max-huge", "ground-rho-max-tiny"])
def test_non_finite_value_fails_naming_the_flag(tmp_path, capsys, argv, flag):
    assert cli.main(argv + ["--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("quiet", [True, False])
def test_config_quiet_silences_the_log(tmp_path, quiet):
    cfg = tmp_path / "q.cfg"
    cfg.write_text(f"quiet = {int(quiet)}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "gpesoliton.cli", "ground", "--config", str(cfg),
                           "--q", "5", "--geometry", "line", "--n-s", "128",
                           "--out", str(tmp_path / "g.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert ("INFO" in proc.stderr) is not quiet
    assert f"quiet = {quiet}" in manifest_lines(tmp_path / "g.csv.manifest")


def test_spherical_collapse_records_the_lambda_z_it_ran(tmp_path):
    out = tmp_path / "c.csv"
    argv = ["collapse", "--geometry", "spherical", "--n-r", "48", "--tol", "8", "--quiet",
            "--out", str(out)]
    assert cli.main(argv) == 0
    table = np.loadtxt(out, delimiter=",", comments="#", skiprows=2)
    assert np.all(table[:, 0] == 1.0)
    assert "lambda_z = 1" in manifest_lines(tmp_path / "c.csv.manifest")


def test_spherical_ground_defaults_to_the_isotropic_trap(tmp_path):
    out = tmp_path / "g.csv"
    argv = ["ground", "--geometry", "spherical", "--q", "5", "--n-r", "64", "--quiet",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert "lambda_z = 1" in manifest_lines(tmp_path / "g.csv.manifest")
    lines = (tmp_path / "g.csv.summary").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["lambda_z"] == "1" and row["converged"] == "1"


@pytest.mark.parametrize("command", ["collapse", "ground"])
def test_spherical_anisotropic_trap_fails(tmp_path, capsys, command):
    # a spherical grid models the isotropic trap only: lambda_z = 0.3 is an error,
    # not a silent run at lambda_z = 1
    argv = [command, "--geometry", "spherical", "--n-r", "48", "--lambda-z", "0.3",
            "--out", str(tmp_path / "o.csv")]
    argv += ["--tol", "8"] if command == "collapse" else ["--q", "5"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lambda_z" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["units", "analytic", "ground", "evolve", "collapse",
                                     "figures"])
def test_subcommand_help_formats(command, capsys):
    # argparse formats the help rows only when help is printed
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_evolve_help_states_the_defaults(capsys):
    # the help text holds the dataclass defaults, not a template of the parser's
    with pytest.raises(SystemExit):
        cli.main(["evolve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "time step (default 0.01;" in text
    assert "steps per record (default 1:" in text


def test_quiet_holds_on_every_call(tmp_path, caplog):
    # logging.basicConfig acts on the first call in a process only
    caplog.set_level(logging.INFO)
    argv = ["ground", "--q", "5", "--geometry", "line", "--n-s", "64",
            "--out", str(tmp_path / "g.csv")]
    for quiet in (False, True, False):
        caplog.clear()
        assert cli.main(argv + ["--quiet"] * quiet) == 0
        logged = any("ground state" in r.getMessage() for r in caplog.records)
        assert logged is not quiet


@pytest.mark.parametrize("argv", [
    ["figures", "fig2", "--geometry", "line"],
    ["figures", "fig2", "--r-max", "6"],
    ["evolve", "--t-final", "0.05", "--n-r", "64"],
    ["units", "--n", "1000", "--lambda-z", "0.1"],
    ["ground", "--q", "5", "--step-size", "0.5"],
    ["ground", "--q", "5", "--energy-tol", "1e-10"],
    ["ground", "--q", "5", "--collapse-guard", "5"],
    ["evolve", "--t-final", "0.05", "--sponge-strength", "5"],
    ["units", "--n", "1000", "--frequency-convention", "linear"],
], ids=["figures-geometry", "figures-r-max", "evolve-n-r", "units-lambda-z",
        "ground-step-size", "ground-energy-tol", "ground-collapse-guard",
        "evolve-sponge-strength", "units-frequency-convention"])
def test_removed_flags_are_rejected(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_tables_print_as_they_are_written(tmp_path, capsys):
    argv = ["analytic", "variational", "--lambda-z", "0,1", "--quiet"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(tmp_path / "v.csv")]) == 0
    assert (tmp_path / "v.csv").read_text() == printed
    assert printed.splitlines()[2:] == ["0,19.542218059269384", "1,16.851838333379362"]

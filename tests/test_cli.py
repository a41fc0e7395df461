import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpesoliton import cli
from gpesoliton import grid as grid_module
from gpesoliton.grid import Geometry, Wavefunction, cylindrical_grid, line_grid, spherical_grid


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
    cli.write_csv(path, ("rho", "s", "re_u", "im_u"), rows, note=note)


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
    cli.write_csv(tmp_path / "rows.csv", ("a", "b", "c", "d"), table.tolist())
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


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


def test_ehrenfest_runs_with_off_cadence_snapshot(tmp_path, caplog):
    # the snapshot at 0.335 ends the first leg off the 20-step sampling cadence
    caplog.set_level(logging.INFO)
    argv = ["evolve", "--geometry", "line", "--q", "5", "--initial", "composite",
            "--t-final", "0.5", "--snapshot-times", "0.335", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    checks = [r.getMessage() for r in caplog.records if "ehrenfest" in r.getMessage()]
    assert len(checks) == 2
    assert not any("skipped" in m for m in checks)
    lines = (tmp_path / "e.csv").read_text().splitlines()[1:]
    col = lines[0].split(",").index("tau")
    taus = [float(line.split(",")[col]) for line in lines[1:]]
    steps = list(range(0, 670, 20)) + [670] + list(range(690, 1000, 20)) + [1000]
    assert taus == pytest.approx([k * 5e-4 for k in steps], abs=1e-15)


def test_off_lattice_snapshot_time_rejected(tmp_path, capsys):
    # 0.3352 lies between steps 670 and 671 of dt = 5e-4
    argv = ["evolve", "--geometry", "line", "--n-s", "256", "--q", "5", "--initial",
            "composite", "--t-final", "0.5", "--snapshot-times", "0.3352",
            "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "snapshot time 0.3352 is off the dt = 0.0005 lattice" in err
    assert "nearest lattice times are 0.335 and 0.3355" in err
    assert not (tmp_path / "e.csv").exists()


def test_off_lattice_t_final_rejected(tmp_path, capsys):
    # 0.50021 lies between steps 1000 and 1001 of dt = 5e-4
    argv = ["evolve", "--geometry", "line", "--n-s", "256", "--q", "5", "--initial",
            "composite", "--t-final", "0.50021", "--out", str(tmp_path / "e.csv")]
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
grid.cylindrical_grid(3.0, -4.0, 4.0, 16, 20).radial_modes()
print("scipy" if grid._bundled_lapack() is None else "numpy-openblas",
      *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_loads_no_scipy():
    # with the numpy wheel's OpenBLAS, the CLI and its tridiagonal solves load
    # no scipy at all; the scipy fallback loads scipy.linalg and nothing else
    # public.  scipy.optimize and scipy.interpolate are imported inside the few
    # functions that use them.
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

"""Benchmark of the gpesoliton CLI on three workloads.

    python3 perfbench/run.py --workload ground --seed 0 --seconds 30 --trace 0

Workloads (argv made from --seed by workloads.py; seed 0 is the canonical one):

* ground   -- trap-free cigar ground state (the paper's Fig. 2); relaxation-bound.
* collapse -- isotropic collapse threshold by bisection; many warm-started relaxations.
* evolve   -- boosted soliton transport, 2000 split-step steps; no relaxation.

--trace 0 measures with tracing off and reports the end-to-end metrics:
  wall_s       median wall time of one cli.main(argv) call, outputs written
  setup_s      median time from interpreter start to `gpesoliton.cli` imported,
               over several fresh interpreters
  peak_rss_mb  peak resident memory of the workload process
  fail_frac    failed / attempted calls (printed; also the result's
               `failed` and `attempted`)
--trace 1 wraps the package's public functions from outside (tracer.py) and
reports per-layer metrics per call, a self-time table and the tracing
overhead; the spans are written as JSON under .perfbench_out/.
--workload all runs the three in turn and prints each one's summary.

Each workload runs in a fresh worker process (worker.py) with one BLAS/OpenMP
thread.  Every call's outputs are checked against physics references; a call
that raises, exits nonzero or fails a check counts as failed.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import ROOT, THREAD_ENV

WORKLOADS = ("ground", "collapse", "evolve")
SETUP_LAUNCHES = 9
DEADLINE_S = 170.0
SETUP_PROBE = "import time, gpesoliton.cli; print(repr(time.monotonic()))"


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env) -> float:
    """Seconds from starting an interpreter until it has imported gpesoliton.cli."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - t0


def run_worker(workload, seed, seconds, trace, size, env, timeout) -> dict:
    out_dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size, "--out-dir", str(out_dir)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def end_to_end(rep: dict, setup: list[float]) -> dict:
    walls = rep["untraced_wall_s"]
    print(f"  {'wall_s':<12}{statistics.median(walls):>12.4f} s    "
          f"median of {len(walls)} calls")
    print(f"  {'setup_s':<12}{statistics.median(setup):>12.4f} s    "
          f"median of {len(setup)} interpreter launches")
    print(f"  {'peak_rss_mb':<12}{rep['peak_rss_mb']:>12.2f} MB   1 worker process")
    print(f"  {'fail_frac':<12}{rep['failed'] / rep['attempted']:>12.4f}      "
          f"{rep['failed']} failed / {rep['attempted']} attempted")
    return {"wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"}}


def per_layer(rep: dict) -> dict:
    for name, m in rep["layers"].items():
        print(f"  {name:<32}{m['value']:>16.6g} {m['unit']}")
    print(f"  (per traced call; {len(rep['traced_wall_s'])} traced and "
          f"{len(rep['untraced_wall_s'])} untraced calls)")
    if rep["missing_targets"]:
        print("  not traced, absent from the package: " + ", ".join(rep["missing_targets"]))
    print("self time:")
    print(rep["self_time"])
    print(f"spans: {rep['spans_file']}")
    return rep["layers"]


def run_one(workload, seed, seconds, trace, size) -> dict:
    started = time.monotonic()
    env = child_env()
    print(f"== {workload} (seed {seed}, {size} size, trace {trace})")
    setup = [] if trace else [measure_setup(env) for _ in range(SETUP_LAUNCHES)]
    rep = run_worker(workload, seed, seconds, trace, size, env,
                     timeout=DEADLINE_S - (time.monotonic() - started))
    print("env: " + json.dumps(rep["env"]))
    metrics = per_layer(rep) if trace else end_to_end(rep, setup)
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny grids run every workload, check and trace in seconds")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gpesoliton" / "cli.py").is_file():
        print(f"error: no gpesoliton source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace, args.size)
                   for w in names}
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

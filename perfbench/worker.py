"""One workload in one fresh process: repeated `gpesoliton.cli.main(argv)` calls.

Started by run.py with the thread and import environment already fixed.  Each
call writes into a scratch directory under --out-dir, is timed from the call
until `main` returns (the output files are written by then), and is then
checked.  Calls continue while the next one is expected to end within
--seconds; there is always at least one.

With --trace 1, untraced and traced calls alternate (at least one of each):
the untraced ones give the reference wall time for the tracing overhead, the
traced ones the per-layer metrics, averaged per call.  The spans go to
<out-dir>/spans.json.

The last line of stdout is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import machine
import workloads
from tracer import Tracer


def run_call(main, case, out_dir: Path) -> dict:
    """Run one CLI call and its output check; any error counts as a failure."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    out = out_dir / f"{case.workload}.csv"
    t0 = time.perf_counter()
    try:
        rc = main(case.argv + ["--out", str(out)])
    except Exception:  # a crash in the program is a failed call, not a crashed benchmark
        return {"wall_s": time.perf_counter() - t0, "ok": False,
                "problems": [traceback.format_exc(limit=3).strip()], "notes": []}
    wall = time.perf_counter() - t0
    if rc != 0:
        return {"wall_s": wall, "ok": False, "problems": [f"exit code {rc}"], "notes": []}
    try:
        problems, notes = case.check(out)
    except (OSError, ValueError, KeyError) as exc:
        problems, notes = [f"output unreadable: {exc!r}"], []
    return {"wall_s": wall, "ok": not problems, "problems": problems, "notes": notes}


def run_workload(case, seconds: float, trace: bool, out_dir: Path) -> dict:
    from gpesoliton import cli

    tracer = Tracer()
    calls = {False: [], True: []}  # traced? -> call results
    start = time.perf_counter()
    while True:
        traced = trace and len(calls[True]) < len(calls[False])
        if traced:
            with tracer.installed():
                res = run_call(cli.main, case, out_dir / "call")
        else:
            res = run_call(cli.main, case, out_dir / "call")
        calls[traced].append(res)
        for line in res["problems"]:
            print(f"  FAIL: {line}", flush=True)
        if len(calls[False]) + len(calls[True]) == 1:
            for line in res["notes"]:
                print(f"  note: {line}", flush=True)
        done = calls[False] + calls[True]
        typical = statistics.median(r["wall_s"] for r in done)
        if (not trace or calls[True]) and time.perf_counter() - start + typical > seconds:
            break
    shutil.rmtree(out_dir / "call", ignore_errors=True)

    report = {
        "untraced_wall_s": [r["wall_s"] for r in calls[False]],
        "traced_wall_s": [r["wall_s"] for r in calls[True]],
        "attempted": len(done),
        "failed": sum(not r["ok"] for r in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": machine.environment(),
    }
    if trace:
        overhead = (statistics.median(report["traced_wall_s"])
                    / statistics.median(report["untraced_wall_s"]) - 1.0)
        report["layers"] = tracer.layer_metrics(len(calls[True]), overhead)
        report["self_time"] = tracer.self_time_table()
        report["missing_targets"] = tracer.missing
        report["spans_file"] = str(out_dir / "spans.json")
        tracer.write(out_dir / "spans.json",
                     {"workload": case.workload, "argv": case.argv,
                      "traced_calls": len(calls[True]), "env": report["env"]})
    return report


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)
    case = workloads.make_case(args.workload, args.seed, args.size)
    print("argv: gpesoliton " + " ".join(case.argv), flush=True)
    report = run_workload(case, args.seconds, bool(args.trace), args.out_dir)
    print(json.dumps(report))


if __name__ == "__main__":
    main()

"""Self-tests of the benchmark; they run in well under a minute.

    python3 perfbench/selftest.py

Tiny grids drive every workload through run.py (untraced and traced), and
hand-written wrong outputs must count as failed calls.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import machine
import workloads
from tracer import Tracer
from worker import run_call

HERE = Path(__file__).resolve().parent
SPEC = json.loads((machine.ROOT / "BENCHMARK.json").read_text())
SCRATCH = machine.ROOT / ".perfbench_out" / "selftest"


def bench(*args, cwd=machine.ROOT):
    done = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.strip().splitlines()


def fake_main(files):
    """A stand-in for cli.main that writes `files` ({suffix: text}) next to --out."""
    def main(argv):
        out = Path(argv[argv.index("--out") + 1])
        for suffix, text in files.items():
            Path(str(out) + suffix).write_text(text)
        return 0
    return main


class TinyRuns(unittest.TestCase):
    def test_untraced_reports_every_end_to_end_metric(self):
        rc, lines = bench("--workload", "evolve", "--size", "tiny", "--seconds", "0")
        self.assertEqual(rc, 0)
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(set(res["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
        self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))
        self.assertTrue(any(line.split()[:1] == ["fail_frac"] for line in lines))

    def test_traced_counts_per_workload(self):
        rc, lines = bench("--workload", "all", "--size", "tiny", "--seconds", "0",
                          "--trace", "1")
        self.assertEqual(rc, 0)
        res = json.loads(lines[-1])
        names = {m["name"] for m in SPEC["per_layer"]}
        for w in workloads.CHECKS:
            self.assertTrue(res[w]["correct"], w)
            self.assertEqual(set(res[w]["metrics"]), names)
        value = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in res.items()}
        self.assertEqual(value["ground"]["groundstate.relax.calls"], 1)
        self.assertEqual(value["ground"]["dynamics.propagate.calls"], 0)
        self.assertEqual(value["collapse"]["collapse.probes"], 3)
        self.assertEqual(value["collapse"]["dynamics.propagate.calls"], 0)
        self.assertEqual(value["evolve"]["groundstate.relax.calls"], 0)
        self.assertEqual(value["evolve"]["dynamics.steps"], 100)
        self.assertEqual(value["evolve"]["dynamics.tridiag.calls"], 300)

    def test_bare_directory_fails_without_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(machine.ROOT / "BENCHMARK.json", bare)
        rc, lines = bench("--workload", "ground", "--seconds", "1", cwd=bare)
        self.assertNotEqual(rc, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))
        shutil.rmtree(bare)


class WrongOutputsFail(unittest.TestCase):
    def run_fake(self, workload, files, main=None):
        case = workloads.make_case(workload, 0)
        return run_call(main or fake_main(files), case, SCRATCH / "call")

    def test_bracket_excluding_qc_fails(self):
        csv = ("# note\nlambda_z,Q,converged,collapsed,resolved,iterations,energy_total\n"
               "1,14.6,1,0,1,10,1\n1,15.0,0,1,1,10,1\n1,14.8,1,1,1,0,nan\n")
        res = self.run_fake("collapse", {"": csv})
        self.assertFalse(res["ok"])
        self.assertIn("excludes", res["problems"][0])

    def test_right_bracket_passes(self):
        csv = ("# note\nlambda_z,Q,converged,collapsed,resolved,iterations,energy_total\n"
               "1,14.2,1,0,1,10,1\n1,14.6,0,1,1,10,1\n1,14.4,1,1,1,0,nan\n")
        self.assertTrue(self.run_fake("collapse", {"": csv})["ok"])

    def test_ground_mu_off_fails(self):
        mu, ws = workloads.GROUND_REF["full"][10.0]
        summary = ("# note\nQ,lambda_z,kinetic,trap,interaction,external,total,mu,"
                   "iterations,converged,collapsed,W_s\n"
                   f"10,0,1,1,-1,0,1,{mu + 1e-3!r},100,1,0,{ws!r}\n")
        res = self.run_fake("ground", {".summary": summary})
        self.assertFalse(res["ok"])
        self.assertIn("mu=", res["problems"][0])

    def test_nonzero_exit_and_crash_fail(self):
        self.assertFalse(self.run_fake("ground", {}, main=lambda argv: 1)["ok"])
        self.assertFalse(self.run_fake("ground", {}, main=lambda argv: 1 / 0)["ok"])


class Inputs(unittest.TestCase):
    def test_seed_zero_is_the_canonical_argv(self):
        canonical = {
            "ground": "ground --q 10 --lambda-z 0 --geometry cylindrical --rho-max 6 "
                      "--n-rho 48 --n-s 192 --s-extent 13.675725018633734",
            "collapse": "collapse --geometry spherical --r-max 6 --n-r 512 --q-min 10 "
                        "--q-max 25 --tol 0.5",
            "evolve": "evolve --q 5 --lambda-z 0 --initial composite --boost 0.5 "
                      "--t-final 1.0 --snapshot-times 0.5 --geometry cylindrical "
                      "--rho-max 6 --n-rho 96 --n-s 384 --s-extent 27.35145003726747",
        }
        for w, argv in canonical.items():
            self.assertEqual(" ".join(workloads.make_case(w, 0).argv), argv)

    def test_seeds_are_reproducible_and_in_family(self):
        for seed in range(1, 30):
            g = workloads.make_case("ground", seed)
            self.assertEqual(g.argv, workloads.make_case("ground", seed).argv)
            self.assertIn(g.params["Q"], workloads.GROUND_REF["full"])
            e = workloads.make_case("evolve", seed)
            self.assertTrue(0.4 <= e.params["v"] <= 0.6)
            c = workloads.make_case("collapse", seed).argv
            self.assertLessEqual(abs(float(c[c.index("--q-min") + 1]) - 10), 0.01 + 1e-12)

    def test_tracer_restores_the_package(self):
        from gpesoliton import cli, collapse, groundstate
        from gpesoliton.grid import Grid
        before = (cli.relax, collapse.relax, groundstate.relax, Grid.laplacian)
        with Tracer().installed():
            self.assertIsNot(cli.relax, before[0])
            self.assertIs(cli.relax, collapse.relax)
        self.assertEqual((cli.relax, collapse.relax, groundstate.relax, Grid.laplacian),
                         before)


if __name__ == "__main__":
    sys.path.insert(0, str(machine.ROOT / "src"))
    SCRATCH.mkdir(parents=True, exist_ok=True)
    unittest.main()

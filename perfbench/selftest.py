"""Self-tests of the benchmark, at coarse sizes so they finish in minutes.

    python3 perfbench/selftest.py

They check that every metric BENCHMARK.json names is printed with its
unit, that a run's repetitions follow from its arguments alone, that
tracing does not change the output files, that the per-layer counts
repeat between traced runs, and that the benchmark refuses to run
without the pscmesh sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, plan  # noqa: E402

# target sizes that refine each workload in about a second
COARSE_H = {"sphere": 0.7, "crease": 0.5, "dense_surface": 0.9}
SEED = 1


def bench(workload, trace, root=ROOT):
    """Run run.py briefly; (exit code, stdout lines, result.json or None)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--h", repr(COARSE_H[workload])],
        stdout=subprocess.PIPE, cwd=str(root), text=True, timeout=600,
        check=False)
    details = (root / ".perfbench" / f"{workload}-seed{SEED}-trace{trace}"
               / "result.json")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(details.read_text()) if proc.returncode == 0 else None
    return proc.returncode, lines, result


class BenchmarkTests(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                cls.runs[w["name"], trace] = bench(w["name"], trace)

    def check_metrics(self, trace, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for w in SPEC["workloads"]:
            code, lines, _result = self.runs[w["name"], trace]
            self.assertEqual(code, 0, w["name"])
            last = json.loads(lines[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed",
                                         "metrics"})
            self.assertTrue(last["correct"], w["name"])
            self.assertGreaterEqual(last["attempted"], 1)
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            self.assertEqual(got, want, w["name"])
            for name, unit in want.items():
                self.assertIn(f"metric {name} = ", "\n".join(lines))
                self.assertIsInstance(last["metrics"][name]["value"],
                                      (int, float))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_metrics(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_metrics(1, "per_layer")

    def test_repetitions_follow_from_the_arguments(self):
        seconds = SPEC["run_seconds"]
        for name, w in WORKLOADS.items():
            reps = plan(w, SEED, seconds, False)
            self.assertEqual(reps, plan(w, SEED, seconds, False))
            seeds = [s for s, _traced in reps]
            self.assertEqual(seeds[0], SEED)
            self.assertEqual(len(set(seeds)), w.meshes, name)
            self.assertGreaterEqual(seeds.count(SEED), 2, name)
            self.assertTrue(all(seeds.count(s) == seeds.count(SEED)
                                for s in seeds), name)
            self.assertEqual(plan(w, SEED, seconds, True)[0], (SEED, False))
            self.assertGreaterEqual(
                sum(t for _s, t in plan(w, SEED, seconds, True)), 2)

    def test_tracing_does_not_change_the_outputs(self):
        for w in SPEC["workloads"]:
            plain = self.runs[w["name"], 0][2]["repetitions"]
            traced = self.runs[w["name"], 1][2]["repetitions"]
            want = next(r["digest"] for r in plain if r["seed"] == SEED)
            self.assertTrue(any(r["trace"] for r in traced))
            for r in traced:
                self.assertEqual(r["digest"], want, w["name"])

    def test_two_traced_runs_give_identical_counts(self):
        counted = [m["name"] for m in SPEC["per_layer"]
                   if m["unit"] not in ("s", "us")
                   and m["name"] != "trace.overhead"]
        w = "crease"
        first = json.loads(self.runs[w, 1][1][-1])["metrics"]
        _code, lines, _result = bench(w, 1)
        second = json.loads(lines[-1])["metrics"]
        for name in counted:
            self.assertEqual(first[name]["value"], second[name]["value"],
                             name)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(HERE, root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, _result = bench("sphere", 0, root=root)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()

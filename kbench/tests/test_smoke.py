"""Smoke test for the benchmark, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest kbench/tests -q        (or: python3 kbench/tests/test_smoke.py)

Every workload must print every metric BENCHMARK.json names, with its unit
and a finite value, untraced and traced. Spark work counts and view sizes
must repeat exactly across two traced runs with the same seed.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["soc-views"]

# Counts that depend only on the seed, never on timing.
EXACT = ("stats.spark_jobs", "materialize.spark_jobs", "execute.spark_jobs", "execute.stages",
         "execute.tasks", "view.edges", "enumerate.candidates", "select.candidates",
         "select.chosen", "select.chosen_unbuildable", "rewrite.hit_rate")


def run(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, "kbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class Smoke(unittest.TestCase):

    def check_metrics(self, result, specs):
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(result["correct"])
        for spec in specs:
            m = result["metrics"].get(spec["name"])
            self.assertIsNotNone(m, spec["name"])
            self.assertEqual(m["unit"], spec["unit"], spec["name"])
            self.assertTrue(math.isfinite(m["value"]), spec["name"])
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})

    def test_workloads(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                self.check_metrics(run(wl, 0), BENCH["end_to_end"])
                first, second = run(wl, 1), run(wl, 1)
                self.check_metrics(first, BENCH["per_layer"])
                for name in EXACT:
                    self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"],
                                     f"{wl} {name} differs between two runs with one seed")


if __name__ == "__main__":
    unittest.main()

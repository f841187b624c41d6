#!/usr/bin/env python3
"""The benchmark's own test: every workload at a toy size, once.

    python3 perfbench/test_perfbench.py

For each workload it runs the untraced and the traced mode and fails if a
metric BENCHMARK.json names is missing, if a job failed, or if a count that
must repeat moved. It then perturbs one reference value and fails unless
every job of that run is reported as failed with an output mismatch.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    """Runs run.py; returns (report, result) parsed from its last two lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny",
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, spec_key):
        for m in SPEC[spec_key]:
            self.assertIn(m["name"], result["metrics"], "metric missing")
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    report, result = run(workload, trace)
                    self.check_metrics(result, key)
                    self.assertTrue(result["correct"], report)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(report["moved_counts"], [])
                    for field in ("nproc", "cpu_model", "compiler",
                                  "build_type", "git_commit", "seed", "shape",
                                  "probe_s", "host_scale", "job_wall_p50_s",
                                  "setup_wall_s", "steal_frac"):
                        self.assertIn(field, report)
                    self.assertGreater(report["probe_s"], 0)

    def test_perturbed_reference_fails_every_job(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report, result = run(workload, 0, "--perturb-reference")
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(report["failures_by_kind"],
                                 {"output-mismatch": result["attempted"]})


if __name__ == "__main__":
    unittest.main()

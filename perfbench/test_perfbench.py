#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

* every workload, at smoke size, prints every metric of BENCHMARK.json with
  its unit, untraced and traced, and passes its correctness checks;
* the percentile routine matches known samples (the perfbench_selftest
  binary);
* an injected failure is counted in `failed` instead of crashing the run or
  going unnoticed;
* without the library sources next to it, the benchmark exits non-zero and
  prints no result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import run  # noqa: E402  (the benchmark entry point, imported for build())

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    """Runs perfbench/run.py; returns (exit code, parsed last line or None, stdout)."""
    runner = Path(cwd) / "perfbench" / "run.py"
    proc = subprocess.run([sys.executable, str(runner), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def smoke(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke", *extra)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()

    def check_metrics(self, workload, result, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected, workload)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), f"{workload} {name}")
            if section == "end_to_end":
                self.assertGreater(metric["value"], 0, f"{workload} {name} must not be 0")

    def test_untraced_smoke_reports_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, output = smoke(workload, 0)
                self.assertEqual(code, 0, output)
                self.assertTrue(result["correct"], output)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0, output)
                self.check_metrics(workload, result, "end_to_end")

    def test_traced_smoke_reports_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, output = smoke(workload, 1)
                self.assertEqual(code, 0, output)
                self.assertTrue(result["correct"], output)
                self.assertEqual(result["failed"], 0, output)
                self.check_metrics(workload, result, "per_layer")

    def test_percentile_routine_matches_known_samples(self):
        proc = subprocess.run([str(self.build_dir / "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_injected_failure_is_counted_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, output = smoke(workload, 0, "--inject-failure")
                self.assertEqual(code, 0, output)
                self.assertIsNotNone(result, output)
                self.assertTrue(result["correct"], output)
                self.assertGreaterEqual(result["failed"], 1, output)
                self.assertGreater(result["attempted"], result["failed"], output)

    def test_without_sources_exits_nonzero_without_result(self):
        scratch = ROOT / ".bench_build" / "tests"
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, output = bench("--workload", WORKLOADS[0], "--seed", "1",
                                         "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(code, 0, output)
            self.assertIsNone(result, output)


if __name__ == "__main__":
    unittest.main()

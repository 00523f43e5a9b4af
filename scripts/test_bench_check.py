#!/usr/bin/env python3
"""Unit tests for bench_check.py's baseline check and --update.

Run directly (python3 scripts/test_bench_check.py) or via ctest
(BenchCheck.Baseline).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent / "bench_check.py"


def results(**rows) -> dict:
    """google-benchmark JSON with one iteration row per keyword."""
    return {"benchmarks": [{"name": name, "run_type": "iteration", **metrics}
                           for name, metrics in rows.items()]}


def baseline() -> dict:
    return {
        "schema": "ars-bench-baseline-v1",
        "tolerance": 0.2,
        "benchmarks": {
            "BM_A": {"items_per_second": 100.0, "real_time": 10.0},
            "BM_B": {"bytes_per_second": 50.0},
            "BM_One": {"real_time": 8.0},
            "BM_Four": {"real_time": 4.0},
        },
        "ratios": {
            "four_vs_one": {"numerator": "BM_One", "denominator": "BM_Four",
                            "value": 2.0},
        },
    }


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.baseline = pathlib.Path(self.dir.name) / "baseline.json"
        self.baseline.write_text(json.dumps(baseline()))

    def run_script(self, doc, *flags):
        path = pathlib.Path(self.dir.name) / "results.json"
        path.write_text(json.dumps(doc))
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--baseline", str(self.baseline),
             *flags, str(path)], capture_output=True, text=True)

    def test_update_replaces_only_measured_rows(self):
        proc = self.run_script(
            results(BM_A={"items_per_second": 300.0, "real_time": 3.0},
                    BM_New={"real_time": 1.0}), "--update")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        updated = json.loads(self.baseline.read_text())
        expected = baseline()
        expected["benchmarks"]["BM_A"] = {"items_per_second": 300.0,
                                          "real_time": 3.0}
        expected["benchmarks"]["BM_New"] = {"real_time": 1.0}
        self.assertEqual(updated, expected)

    def test_update_refreshes_a_ratio_when_both_operands_ran(self):
        proc = self.run_script(
            results(BM_One={"real_time": 9.0}, BM_Four={"real_time": 3.0}),
            "--update")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        updated = json.loads(self.baseline.read_text())
        self.assertAlmostEqual(updated["ratios"]["four_vs_one"]["value"], 3.0)
        self.assertEqual(updated["benchmarks"]["BM_A"],
                         baseline()["benchmarks"]["BM_A"])

    def test_update_creates_a_missing_baseline(self):
        self.baseline.unlink()
        proc = self.run_script(results(BM_A={"real_time": 2.0}), "--update")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(json.loads(self.baseline.read_text()), {
            "schema": "ars-bench-baseline-v1", "tolerance": 0.35,
            "benchmarks": {"BM_A": {"real_time": 2.0}}})

    def test_check_fails_only_beyond_tolerance(self):
        within = self.run_script(results(BM_B={"bytes_per_second": 41.0}))
        self.assertEqual(within.returncode, 0, within.stdout)
        beyond = self.run_script(results(BM_B={"bytes_per_second": 39.0}))
        self.assertEqual(beyond.returncode, 1, beyond.stdout)
        self.assertIn("FAIL BM_B bytes_per_second", beyond.stdout)


if __name__ == "__main__":
    unittest.main()

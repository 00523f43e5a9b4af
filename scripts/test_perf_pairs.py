#!/usr/bin/env python3
"""Unit tests for perf_pairs.py's statistics and run parsing.

Run directly (python3 scripts/test_perf_pairs.py) or via ctest
(PerfPairs.Statistics).
"""

import argparse
import json
import pathlib
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import perf_pairs  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(perf_pairs.quantile(values, 0.0), 1.0)
        self.assertEqual(perf_pairs.quantile(values, 1.0), 4.0)
        self.assertEqual(perf_pairs.quantile(values, 0.5), 2.5)
        self.assertEqual(perf_pairs.quantile(values, 0.25), 1.75)
        self.assertEqual(perf_pairs.quantile(values, 0.75), 3.25)

    def test_one_value_is_every_quantile(self):
        for q in (0.0, 0.25, 0.5, 1.0):
            self.assertEqual(perf_pairs.quantile([7.0], q), 7.0)

    def test_no_values_is_an_error(self):
        with self.assertRaises(ValueError):
            perf_pairs.quantile([], 0.5)

    def test_summary_of_an_odd_count(self):
        self.assertEqual(perf_pairs.summary([5.0, 1.0, 3.0, 2.0, 4.0]),
                         {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0,
                          "max": 5.0})


class WinsTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertEqual(perf_pairs.wins([1.0, 2.0, 3.0], [0.5, 2.5, 1.0],
                                         "lower"), 2)

    def test_higher_is_better(self):
        self.assertEqual(perf_pairs.wins([1.0, 2.0, 3.0], [0.5, 2.5, 1.0],
                                         "higher"), 1)

    def test_ties_win_nothing(self):
        self.assertEqual(perf_pairs.wins([1.0, 2.0], [1.0, 2.0], "lower"), 0)
        self.assertEqual(perf_pairs.wins([1.0, 2.0], [1.0, 2.0], "higher"),
                         0)

    def test_unpaired_runs_are_an_error(self):
        with self.assertRaises(ValueError):
            perf_pairs.wins([1.0], [1.0, 2.0], "lower")


class OrderTest(unittest.TestCase):
    def test_sides_alternate_going_first(self):
        firsts = [perf_pairs.order(i)[0] for i in range(4)]
        self.assertEqual(firsts, ["base", "change", "base", "change"])
        for i in range(4):
            self.assertEqual(sorted(perf_pairs.order(i)), ["base", "change"])


class RunBenchTest(unittest.TestCase):
    """run_bench passes the benchmark's own flags and reads its last line."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.root = pathlib.Path(self.dir.name)
        (self.root / "perfbench").mkdir()

    def fake_run_py(self, exit_code):
        (self.root / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            "print('a table line')\n"
            "print(json.dumps({'correct': %r, 'argv': sys.argv[1:]}))\n"
            "sys.exit(%d)\n" % (exit_code == 0, exit_code))

    def args(self, seed):
        return argparse.Namespace(trace=1, seed=seed)

    def test_reads_the_result_line_and_passes_only_benchmark_flags(self):
        self.fake_run_py(0)
        result = perf_pairs.run_bench(self.root, None, "policies",
                                      self.args(3), 5)
        self.assertTrue(result["correct"])
        self.assertEqual(result["argv"], ["--workload", "policies",
                                          "--seconds", "5", "--trace", "1",
                                          "--seed", "3"])

    def test_a_failed_check_is_a_result(self):
        self.fake_run_py(1)
        result = perf_pairs.run_bench(self.root, None, "policies",
                                      self.args(None), 5)
        self.assertFalse(result["correct"])
        self.assertNotIn("--seed", result["argv"])

    def test_a_build_or_usage_error_stops_the_script(self):
        self.fake_run_py(2)
        with self.assertRaises(SystemExit) as stop:
            perf_pairs.run_bench(self.root, None, "policies",
                                 self.args(None), 5)
        self.assertEqual(stop.exception.code, 2)


if __name__ == "__main__":
    unittest.main()

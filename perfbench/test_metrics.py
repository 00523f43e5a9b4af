"""Tests for the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics as m

HERE = Path(__file__).resolve().parent


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(m.tail_percentile(range(1, 101)), (90.0, 90))

    def test_falls_back_to_the_highest_percentile_that_qualifies(self):
        # 99 samples: p90 is rank 90 with 9 beyond; p75 is rank 75, 24 beyond.
        self.assertEqual(m.tail_percentile(range(1, 100)), (75.0, 75))

    def test_too_few_samples_for_any_tail(self):
        self.assertEqual(m.tail_percentile(range(19)), (None, None))
        self.assertEqual(m.tail_percentile([]), (None, None))

    def test_order_of_samples_does_not_matter(self):
        values = list(range(200, 0, -1))
        self.assertEqual(m.tail_percentile(values), (90.0, 180))

    def test_derive_reports_median_and_tail_with_sample_count(self):
        metrics, notes = m.derive(
            {"samples": {"seed_run_ms": list(range(1, 101)),
                         "wall_s": [3.0, 1.0, 2.0]},
             "values": {"sim.events": 7.0}})
        self.assertEqual(metrics["seed_run_ms_p50"], 50.5)
        self.assertEqual(metrics["seed_run_ms_p90"], 90)
        self.assertEqual(metrics["seed_run_ms_samples"], 100)
        self.assertEqual(metrics["wall_s"], 2.0)
        self.assertEqual(metrics["sim.events"], 7.0)
        self.assertEqual(notes, [])

    def test_derive_omits_a_tail_it_cannot_support(self):
        metrics, notes = m.derive({"samples": {"slice_ms": [1.0] * 12}})
        self.assertNotIn("sim.slice_ms_p90", metrics)
        self.assertEqual(len(notes), 1)


class FailureAccounting(unittest.TestCase):
    def test_counts_and_fraction(self):
        checks = [{"name": "a", "ok": True}, {"name": "b", "ok": False},
                  {"name": "c", "ok": True}, {"name": "d", "ok": False}]
        self.assertEqual(m.count_failures(checks), (4, 2))
        self.assertEqual(m.failed_frac(4, 2), 0.5)

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(m.failed_frac(0, 0), 1.0)
        self.assertFalse(m.result_line([], {}, [])["correct"])

    def test_drifted_pin_is_a_failed_operation(self):
        checks = m.pin_checks({"sim_exec_s": 345.1757511599988,
                               "sim.events": 254571,
                               "net.datagrams": 5639},
                              {"sim_exec_s": 345.1757511599988,
                               "sim.events": 254572,
                               "net.datagrams": 5639.0})
        self.assertEqual([c["name"] for c in checks],
                         ["pin.net.datagrams", "pin.sim.events",
                          "pin.sim_exec_s"])
        self.assertEqual(m.count_failures(checks), (3, 1))

    def test_missing_pinned_value_is_a_failed_operation(self):
        checks = m.pin_checks({"xmlproto.msgs.health": 4}, {})
        self.assertEqual(m.count_failures(checks), (1, 1))

    def test_result_line_shape(self):
        wanted = [{"name": "wall_s", "unit": "s"},
                  {"name": "ckpt.commits", "unit": "count"}]
        line = m.result_line([{"name": "a", "ok": True}], {"wall_s": 1.5},
                             wanted)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["wall_s"],
                         {"value": 1.5, "unit": "s"})
        self.assertEqual(line["metrics"]["ckpt.commits"]["value"], 0.0)
        self.assertTrue(line["correct"])

    def test_pins_by_seed_and_trace_mode(self):
        spec = {"workloads": {
            "w": {"pinned": {"a": 1, "t": 5}, "traced_only": ["t"]},
            "c": {"pinned_by_seed": {"3": {"b": 2}}}}}
        self.assertEqual(m.pins_for(spec, "w", 99, True), {"a": 1, "t": 5})
        self.assertEqual(m.pins_for(spec, "w", 99, False), {"a": 1})
        self.assertEqual(m.pins_for(spec, "c", 3, False), {"b": 2})
        self.assertEqual(m.pins_for(spec, "c", 4, True), {})


class MetricNames(unittest.TestCase):
    def test_valid_names(self):
        for name in ["wall_s", "sim.events", "xmlproto.msgs.update_batch",
                     "ckpt.waste_s.periodic", "0ratio", "a-b", "x" * 64]:
            self.assertTrue(m.valid_name(name), name)

    def test_invalid_names(self):
        for name in ["", ".events", "_x", "wall s", "a/b", "µs", "x" * 65,
                     None, 3]:
            self.assertFalse(m.valid_name(name), name)

    def test_duplicates_are_reported(self):
        doc = {"workloads": [{"name": "w"}],
               "end_to_end": [{"name": "wall_s"}],
               "per_layer": [{"name": "wall_s"}, {"name": "bad name"}]}
        self.assertEqual(m.invalid_names(doc), ["bad name", "wall_s"])

    def test_committed_benchmark_and_layer_map_agree(self):
        benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "spec.json").read_text())
        self.assertEqual(m.invalid_names(benchmark), [])
        per_layer = {d["name"] for d in benchmark["per_layer"]}
        self.assertEqual(per_layer, set(spec["layers"]))
        workloads = {w["name"] for w in benchmark["workloads"]}
        self.assertEqual(workloads, set(spec["workloads"]))
        for layer in spec["layers"].values():
            self.assertLessEqual(set(layer["workloads"]), workloads)
        for entry in spec["workloads"].values():
            pinned = set(entry.get("pinned", {}))
            for by_seed in entry.get("pinned_by_seed", {}).values():
                pinned |= set(by_seed)
            self.assertLessEqual(set(entry.get("traced_only", [])), pinned)


if __name__ == "__main__":
    unittest.main()

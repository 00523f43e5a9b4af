#!/usr/bin/env python3
"""Unit tests for gen_cluster_plan.py's schema validation.

Run directly (python3 scripts/test_gen_cluster_plan.py) or via ctest
(GenClusterPlan.SchemaValidation).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import gen_cluster_plan as gcp

SCRIPT = pathlib.Path(gcp.__file__).resolve()


def minimal_plan() -> dict:
    return {"name": "t", "hosts": 100, "shards": 2, "duration": 30.0}


class ValidatePlanTest(unittest.TestCase):
    def test_minimal_plan_is_valid(self):
        self.assertEqual(gcp.validate_plan(minimal_plan()), [])

    def test_unknown_top_level_key_is_rejected_with_path(self):
        plan = minimal_plan()
        plan["hots"] = 5  # typo of "hosts"
        self.assertEqual(gcp.validate_plan(plan), ["$.hots: unknown key"])

    def test_every_error_names_the_offending_key(self):
        plan = minimal_plan()
        plan["busy_fraction"] = 1.5
        plan["shards"] = 0
        plan["bogus"] = True
        errors = gcp.validate_plan(plan)
        self.assertEqual(len(errors), 3)
        self.assertTrue(any(e.startswith("$.bogus: unknown key") for e in errors))
        self.assertTrue(
            any(e.startswith("$.busy_fraction: expected number in [0, 1]")
                for e in errors))
        self.assertTrue(
            any(e.startswith("$.shards: expected integer >= 1") for e in errors))

    def test_missing_required_key_is_reported(self):
        plan = minimal_plan()
        del plan["duration"]
        self.assertEqual(
            gcp.validate_plan(plan), ["$.duration: required key is missing"])

    def test_bool_does_not_pass_as_integer(self):
        plan = minimal_plan()
        plan["hosts"] = True  # JSON true; must not satisfy "integer >= 1"
        errors = gcp.validate_plan(plan)
        self.assertEqual(len(errors), 1)
        self.assertTrue(errors[0].startswith("$.hosts: expected integer >= 1"))

    def test_non_object_document_is_rejected(self):
        self.assertEqual(gcp.validate_plan([1, 2]),
                         ["$: expected a JSON object"])

    def test_generated_plans_validate(self):
        parser_args = ["--hosts", "2000", "--shards", "4", "--duration", "30",
                       "--message-loss", "0.05", "--crash-hosts", "3"]
        out = subprocess.run(
            [sys.executable, str(SCRIPT), *parser_args],
            capture_output=True, text=True, check=True)
        self.assertEqual(gcp.validate_plan(json.loads(out.stdout)), [])


class CheckModeTest(unittest.TestCase):
    def run_check(self, document: str):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as fh:
            fh.write(document)
            path = fh.name
        try:
            return subprocess.run(
                [sys.executable, str(SCRIPT), "--check", path],
                capture_output=True, text=True)
        finally:
            pathlib.Path(path).unlink()

    def test_check_accepts_a_valid_plan(self):
        result = self.run_check(json.dumps(minimal_plan()))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("ok", result.stderr)

    def test_check_rejects_unknown_keys_with_path(self):
        plan = minimal_plan()
        plan["craash_hosts"] = 3
        result = self.run_check(json.dumps(plan))
        self.assertEqual(result.returncode, 1)
        self.assertIn("$.craash_hosts: unknown key", result.stderr)

    def test_check_rejects_unparseable_json(self):
        result = self.run_check("{not json")
        self.assertEqual(result.returncode, 1)

    def test_committed_plans_pass_check(self):
        plans = sorted(
            (SCRIPT.parent.parent / "plans").glob("huge-cluster*.json"))
        self.assertTrue(plans)
        for plan in plans:
            result = subprocess.run(
                [sys.executable, str(SCRIPT), "--check", str(plan)],
                capture_output=True, text=True)
            self.assertEqual(result.returncode, 0,
                             f"{plan}: {result.stderr}")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark's Python side: the metric-name validation
against BENCHMARK.json, and the shape of BENCHMARK.json itself.

    python3 perfbench/test_run.py

The arithmetic of the C++ side (percentile rule, span self time) is tested
by `perfbench --self-test`, which every benchmark run also executes.
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class ValidateMetricsTest(unittest.TestCase):
    EXPECTED = {"latency_ms": "ms", "setup_s": "s"}

    def metrics(self, **overrides):
        m = {"latency_ms": {"value": 1.5, "unit": "ms"}, "setup_s": {"value": 0.2, "unit": "s"}}
        m.update(overrides)
        return m

    def test_matching_metrics_pass(self):
        self.assertEqual(run.validate_metrics(self.metrics(), self.EXPECTED), [])

    def test_missing_metric(self):
        m = self.metrics()
        del m["setup_s"]
        self.assertEqual(run.validate_metrics(m, self.EXPECTED), ["missing metric setup_s"])

    def test_unexpected_metric(self):
        m = self.metrics(extra={"value": 1, "unit": "ms"})
        self.assertEqual(run.validate_metrics(m, self.EXPECTED), ["unexpected metric extra"])

    def test_wrong_unit(self):
        m = self.metrics(latency_ms={"value": 1.5, "unit": "us"})
        self.assertEqual(len(run.validate_metrics(m, self.EXPECTED)), 1)

    def test_non_finite_value(self):
        for bad in (float("nan"), float("inf"), None, True, "1"):
            m = self.metrics(latency_ms={"value": bad, "unit": "ms"})
            self.assertEqual(len(run.validate_metrics(m, self.EXPECTED)), 1, bad)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})

    def test_workloads_are_runnable(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertTrue(2 <= len(names) <= 8)
        self.assertTrue(set(names) <= set(run.WORKLOADS), names)

    def test_names_units_and_bounds(self):
        names = []
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "metric names are used once")

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()

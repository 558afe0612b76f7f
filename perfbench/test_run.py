"""Tests of the benchmark harness: python3 -m unittest discover -s perfbench"""

import json
import os
import re
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def spec():
    with open(run.SPEC) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_are_valid_and_declared(self):
        for name in run.END_TO_END:
            self.assertRegex(name, NAME)
        self.assertEqual({m["name"] for m in spec()["end_to_end"]}, set(run.END_TO_END))

    def test_units_come_from_the_spec(self):
        for kind in ("end_to_end", "per_layer"):
            units = run.metric_units(kind)
            self.assertEqual(set(units), {m["name"] for m in spec()[kind]})
            for name in units:
                self.assertRegex(name, NAME)

    def test_layer_map_covers_every_layer_metric(self):
        with open(os.path.join(run.HERE, "layers.json")) as f:
            layers = json.load(f)["layers"]
        mapped = [m for layer in layers for m in layer["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in spec()["per_layer"]))
        workloads = {w["name"] for w in spec()["workloads"]}
        e2e = {m["name"] for m in spec()["end_to_end"]} | set(mapped)
        for layer in layers:
            for move in layer["moves"]:
                self.assertIn(move["workload"], workloads)
                self.assertIn(move["metric"], e2e)
            self.assertLessEqual(set(layer["flat_on"]), workloads)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def result(fps, failed=0):
    return {"cells": [{"name": n, "ops": 3, "failed": failed, "fp": fp} for n, fp in fps.items()]}


class Correctness(unittest.TestCase):
    PINS = {"campaign": {"a": "01", "b": "02"}}

    def test_pinned_outputs_pass(self):
        runs = [result({"a": "01", "b": "02"})] * 2
        self.assertEqual(run.check_cells("campaign", 0, runs, self.PINS), (12, 0))

    def test_a_perturbed_output_fails_its_fingerprint(self):
        runs = [result({"a": "01", "b": "ff"})] * 2
        self.assertEqual(run.check_cells("campaign", 0, runs, self.PINS), (12, 6))

    def test_other_seeds_need_only_repeat(self):
        runs = [result({"a": "aa", "b": "bb"})] * 2
        self.assertEqual(run.check_cells("campaign", 7, runs, self.PINS), (12, 0))
        runs = [result({"a": "aa", "b": "bb"}), result({"a": "aa", "b": "bc"})]
        self.assertEqual(run.check_cells("campaign", 7, runs, self.PINS), (12, 3))

    def test_worker_failures_count(self):
        runs = [result({"a": "01", "b": "02"}, failed=1)]
        self.assertEqual(run.check_cells("campaign", 0, runs, self.PINS), (6, 2))


class Steadiness(unittest.TestCase):
    def test_spread_is_the_interquartile_range_over_the_median(self):
        med, q1, q3, spread = run.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(spread, 1.0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Exit-status tests for tools/check_bench_trajectory.py.

Run directly (ctest registers it as check_bench_trajectory_test):
  python3 tests/check_bench_trajectory_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "check_bench_trajectory.py")


def trajectory(points):
    return {"schema": "fm-bench-trajectory-v1", "bench": "fig1_highlight",
            "backend": "noop", "counters": [],
            "points": [{"series": s, "point": p, "value": v, "unit": "ns/step"}
                       for s, p, v in points]}


class GateExitStatus(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.history = self.write("history.json", trajectory([
            ("fig1c/flashmob-interleave", "YT/d1", 18.0),
            ("fig1a/flashmob", "YT", 20.0)]))

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, points, *flags):
        current = self.write("current.json", trajectory(points))
        return subprocess.run(
            [sys.executable, GATE, current, "--history", self.history, *flags],
            capture_output=True, text=True).returncode

    def test_within_tolerance_passes(self):
        self.assertEqual(self.gate([("fig1a/flashmob", "YT", 21.0)]), 0)

    def test_regression_fails(self):
        self.assertEqual(self.gate([("fig1a/flashmob", "YT", 30.0)]), 1)

    def test_filter_gates_only_matching_points(self):
        points = [("fig1c/flashmob-interleave", "YT/d1", 18.1),
                  ("fig1a/flashmob", "YT", 30.0)]
        self.assertEqual(self.gate(points, "--filter",
                                   "fig1c/flashmob-interleave/YT/d1",
                                   "--tolerance", "2"), 0)

    def test_filter_without_shared_point_is_an_error(self):
        # The gated series is gone from the run: the gate must not pass.
        points = [("fig1a/flashmob", "YT", 20.0)]
        self.assertEqual(self.gate(points, "--filter",
                                   "fig1c/flashmob-interleave/YT/d8"), 2)

    def test_no_filter_and_no_shared_point_passes(self):
        self.assertEqual(self.gate([("fig1a/new-series", "YT", 5.0)]), 0)


if __name__ == "__main__":
    unittest.main()

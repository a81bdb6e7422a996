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

    def run_gate(self, current, *flags):
        return subprocess.run([sys.executable, GATE, current, *flags],
                              capture_output=True, text=True)

    def gate(self, points, *flags):
        current = self.write("current.json", trajectory(points))
        return self.run_gate(current, "--history", self.history,
                             *flags).returncode

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

    def test_history_of_another_schema_is_skipped_with_a_note(self):
        # benchmark/run.py ledger points share the BENCH_N.json names; a
        # history glob that meets one still gates against the trajectories.
        ledger = self.write("ledger.json", {"sets": [{"workloads": {}}]})
        current = self.write("current.json",
                             trajectory([("fig1a/flashmob", "YT", 30.0)]))
        glob = os.path.join(self.dir.name, "[hl]*.json")
        proc = self.run_gate(current, "--history", glob)
        self.assertEqual(proc.returncode, 1)  # the regression still trips
        notes = [line for line in proc.stderr.splitlines()
                 if line.startswith("note: skipping history")]
        self.assertEqual(len(notes), 1)
        self.assertIn(ledger, notes[0])
        self.assertIn("1 history files", proc.stdout)

    def test_history_without_a_trajectory_is_an_error(self):
        ledger = self.write("ledger.json", {"sets": []})
        current = self.write("current.json",
                             trajectory([("fig1a/flashmob", "YT", 20.0)]))
        self.assertEqual(
            self.run_gate(current, "--history", ledger).returncode, 2)

    def test_missing_history_is_a_usage_error(self):
        # No default history: the committed points span bench scales, so a
        # guessed glob would gate against points that do not compare.
        current = self.write("current.json",
                             trajectory([("fig1a/flashmob", "YT", 20.0)]))
        proc = self.run_gate(current)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("--history", proc.stderr)

    def test_current_of_another_schema_is_an_error(self):
        current = self.write("current.json", {"sets": []})
        self.assertEqual(
            self.run_gate(current, "--history", self.history).returncode, 2)


if __name__ == "__main__":
    unittest.main()

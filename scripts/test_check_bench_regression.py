#!/usr/bin/env python3
"""Self-test of check_bench_regression.py's round handling and exit status:

    python3 scripts/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def write_round(directory, name, ops):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema": "ramp-bench-micro/1",
                   "benchmarks": [{"op": op, "ns_per_iter": ns}
                                  for op, ns in ops.items()]}, f)
    return path


class RoundsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = write_round(self.tmp.name, "baseline.json",
                                    {"BM_Fast": 100.0, "BM_Slow": 1000.0})

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, rounds, *extra):
        paths = [write_round(self.tmp.name, f"round{i}.json", ops)
                 for i, ops in enumerate(rounds)]
        return subprocess.run(
            [sys.executable, SCRIPT, *paths, "--baseline", self.baseline,
             "--absolute", *extra], capture_output=True, text=True)

    def test_one_slow_round_is_outvoted(self):
        rounds = [{"BM_Fast": 102.0, "BM_Slow": 1000.0},
                  {"BM_Fast": 300.0, "BM_Slow": 1010.0},
                  {"BM_Fast": 98.0, "BM_Slow": 990.0}]
        result = self.check(rounds)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("median of 3 rounds", result.stdout)

    def test_a_regression_in_most_rounds_fails(self):
        rounds = [{"BM_Fast": 130.0, "BM_Slow": 1000.0},
                  {"BM_Fast": 125.0, "BM_Slow": 1000.0},
                  {"BM_Fast": 100.0, "BM_Slow": 1000.0}]
        result = self.check(rounds)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("BM_Fast", result.stdout)

    def test_a_single_round_is_judged_alone(self):
        result = self.check([{"BM_Fast": 130.0, "BM_Slow": 1000.0}])
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_ratio_gates_use_the_medians(self):
        rounds = [{"BM_Fast": 100.0, "BM_Slow": 1000.0},
                  {"BM_Fast": 100.0, "BM_Slow": 300.0},
                  {"BM_Fast": 100.0, "BM_Slow": 1000.0}]
        result = self.check(rounds, "--ratio", "BM_Fast:BM_Slow:5")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("10.00x", result.stdout)


class ExitStatusTest(unittest.TestCase):
    """1 means a regression; 2 means the check could not run at all."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = write_round(self.tmp.name, "baseline.json",
                                    {"BM_Fast": 100.0})

    def tearDown(self):
        self.tmp.cleanup()

    def run_check(self, current):
        return subprocess.run(
            [sys.executable, SCRIPT, current, "--baseline", self.baseline,
             "--absolute"], capture_output=True, text=True)

    def test_unreadable_file_exits_2(self):
        missing = os.path.join(self.tmp.name, "missing.json")
        result = self.run_check(missing)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("error: cannot read", result.stderr)

    def test_file_with_no_benchmarks_exits_2(self):
        empty = write_round(self.tmp.name, "empty.json", {})
        result = self.run_check(empty)
        self.assertEqual(result.returncode, 2, result.stderr)
        self.assertIn("no benchmarks", result.stderr)

    def test_regression_exits_1(self):
        slow = write_round(self.tmp.name, "slow.json", {"BM_Fast": 200.0})
        result = self.run_check(slow)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSION", result.stdout)


if __name__ == "__main__":
    unittest.main()

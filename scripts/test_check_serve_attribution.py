#!/usr/bin/env python3
"""Self-test of check_serve_attribution.py on small fixture documents:

    python3 scripts/test_check_serve_attribution.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_serve_attribution.py")

PHASES = ("read", "parse", "admission", "queue", "cache", "compute",
          "serialize", "flush")
GOOD = {
    "schema": "ramp-bench-micro/1",
    "benchmarks": [],
    "attribution": {
        "rate_rps": 8000.0,
        "requests": 8000,
        "traced_achieved_rps": 7900.0,
        "traced_over_plain": 0.9875,
        "phase_ns": {p: 1000 for p in PHASES},
        "phase_fraction": {p: 1.0 / len(PHASES) for p in PHASES},
    },
}


class AttributionCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, doc, *extra):
        path = os.path.join(self.tmp.name, "BENCH_serve.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return subprocess.run(
            [sys.executable, SCRIPT, path, "--min-traced-ratio", "0.5",
             *extra], capture_output=True, text=True)

    def broken(self, **changes):
        doc = copy.deepcopy(GOOD)
        doc["attribution"].update(changes)
        return doc

    def test_well_formed_block_passes(self):
        r = self.check(GOOD)
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_missing_phase_fails(self):
        ns = {p: 1000 for p in PHASES if p != "queue"}
        frac = {p: 1.0 / len(ns) for p in ns}
        r = self.check(self.broken(phase_ns=ns, phase_fraction=frac))
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing phase 'queue'", r.stdout)

    def test_fractions_not_summing_to_one_fail(self):
        frac = {p: 0.9 / len(PHASES) for p in PHASES}
        r = self.check(self.broken(phase_fraction=frac))
        self.assertEqual(r.returncode, 1)
        self.assertIn("sum to 0.9", r.stdout)

    def test_zero_requests_fail(self):
        r = self.check(self.broken(requests=0))
        self.assertEqual(r.returncode, 1)
        self.assertIn("requests", r.stdout)

    def test_traced_ratio_below_minimum_fails(self):
        r = self.check(self.broken(traced_over_plain=0.4))
        self.assertEqual(r.returncode, 1)
        self.assertIn("tracing collapsed", r.stdout)
        # The same document passes against a lower floor.
        self.assertEqual(
            self.check(self.broken(traced_over_plain=0.4),
                       "--min-traced-ratio", "0.3").returncode, 0)

    def test_unreadable_file_exits_2(self):
        r = subprocess.run(
            [sys.executable, SCRIPT, os.path.join(self.tmp.name, "absent")],
            capture_output=True, text=True)
        self.assertEqual(r.returncode, 2)


if __name__ == "__main__":
    unittest.main()

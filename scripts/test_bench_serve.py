#!/usr/bin/env python3
"""Self-test of bench_serve.py's schedule builder and rows summary:

    python3 scripts/test_bench_serve.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_serve  # noqa: E402

OK = '{"ok":true,"op":"eval","id":0}'
SHED = '{"ok":false,"id":1,"error":"overloaded","overloaded":true}'
ERROR = '{"ok":false,"id":2,"error":"unknown app"}'


class ScheduleTest(unittest.TestCase):
    def test_count_order_and_connections(self):
        rows = bench_serve.build_schedule(800.0, 2.5, 16, 0.5, 3000)
        self.assertEqual(len(rows), 2000)
        dues = [due for due, _, _ in rows]
        self.assertEqual(dues, sorted(dues))
        self.assertLess(dues[-1], 2_500_000)
        self.assertTrue(all(0 <= conn < 16 for _, conn, _ in rows))
        for _, _, line in rows:
            req = json.loads(line)
            self.assertEqual(req["op"], "eval")
            self.assertEqual(req["trace_len"], 3000)

    def test_hot_key_share(self):
        pool = len(bench_serve.APPS) * len(bench_serve.NODES)
        for hot_frac in (0.0, 0.5, 1.0):
            rows = bench_serve.build_schedule(20000.0, 1.0, 4, hot_frac, 3000)
            hot = sum(1 for _, _, line in rows
                      if json.loads(line)["app"] == bench_serve.APPS[0]
                      and json.loads(line)["node"] == bench_serve.NODES[0])
            # The uniform share also lands on the hot key 1 time in `pool`.
            want = hot_frac + (1.0 - hot_frac) / pool
            self.assertAlmostEqual(hot / len(rows), want, delta=0.02)


class SummaryTest(unittest.TestCase):
    # (due_ns, sent_ns, recv_ns, reply): sends lag their due times by 5 ms,
    # so a latency taken from the send time would read 5 ms lower.
    ROWS = [(0, 5_000_000, 10_000_000, OK),
            (1_000_000, 6_000_000, 21_000_000, SHED),
            (2_000_000, 7_000_000, 32_000_000, ERROR),
            (3_000_000, 8_000_000, -1, "")]

    def test_counts_each_outcome(self):
        s = bench_serve.summarize(self.ROWS, 100.0)
        self.assertEqual(s["sent"], 4)
        self.assertEqual(s["completed"], 3)
        self.assertEqual(s["ok"], 1)
        self.assertEqual(s["overloaded"], 1)
        self.assertEqual(s["errors"], 1)
        self.assertAlmostEqual(s["achieved_rps"], 3 / 0.032)

    def test_latency_from_due_time(self):
        s = bench_serve.summarize(self.ROWS, 100.0)
        self.assertAlmostEqual(s["p50_ms"], 20.0)
        self.assertAlmostEqual(s["p99_ms"], 20.0)
        rows = [(i * 1_000_000, i * 1_000_000 + 1,
                 i * 1_000_000 + (i + 1) * 1000, OK) for i in range(100)]
        s = bench_serve.summarize(rows, 100.0)
        self.assertAlmostEqual(s["p50_ms"], 0.050)
        self.assertAlmostEqual(s["p99_ms"], 0.099)


class PointIsGoodTest(unittest.TestCase):
    @staticmethod
    def point(replies, offered_rps=100.0):
        rows = [(i * 10_000_000, i * 10_000_000, i * 10_000_000 + 1_000_000, r)
                for i, r in enumerate(replies)]
        return bench_serve.summarize(rows, offered_rps)

    def test_clean_point_is_good(self):
        self.assertTrue(bench_serve.point_is_good(self.point([OK] * 10)))

    def test_each_failure_spoils_the_point(self):
        self.assertFalse(bench_serve.point_is_good(self.point([OK] * 9 + [SHED])))
        self.assertFalse(bench_serve.point_is_good(self.point([OK] * 9 + [ERROR])))
        rows = [(0, 0, 1_000_000, OK)] * 9 + [(0, 0, -1, "")]
        unanswered = bench_serve.summarize(rows, 0.0)
        self.assertEqual(unanswered["completed"], 9)
        self.assertFalse(bench_serve.point_is_good(unanswered))

    def test_falling_behind_spoils_the_point(self):
        # Ten replies over 91 ms is ~110 rps: it keeps up with 100, not 200.
        self.assertTrue(bench_serve.point_is_good(self.point([OK] * 10, 100.0)))
        self.assertFalse(bench_serve.point_is_good(self.point([OK] * 10, 200.0)))

    def test_empty_pass_is_not_good(self):
        self.assertFalse(bench_serve.point_is_good(bench_serve.summarize([], 0.0)))


if __name__ == "__main__":
    unittest.main()

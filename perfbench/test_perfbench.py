#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

The transport-decorator test builds the harness first (as run.py does).
"""

import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def record(due, sent, done, heavy=0, ok=1, rejected=0):
    return [due, sent, done, heavy, ok, rejected, 1, 1]


class PercentileRule(unittest.TestCase):
    def test_reports_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))
        value, pct, n = stats.tail(values)
        self.assertEqual(n, 1000)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_fewer_samples_give_a_lower_percentile(self):
        value, pct, n = stats.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_too_few_samples_fall_back_to_the_median(self):
        value, pct, n = stats.tail([5.0, 1.0, 3.0] + [9.0] * 14)
        self.assertEqual((value, pct, n), (9.0, 50.0, 17))


class FailureAccounting(unittest.TestCase):
    def test_refused_query_is_failed_and_misses_every_limit(self):
        records = [record(i * 10.0, i * 10.0, i * 10.0 + 2) for i in range(19)]
        records.append(record(190.0, 190.0, 190.0, ok=0, rejected=1))
        short, _, _, failed = stats.query_latencies(records)
        self.assertEqual(failed, 1)
        self.assertTrue(math.isinf(max(short)))
        raw = {"attempted": 0, "failed": 0, "setup_s": [0.1],
               "peak_rss_mb": 10.0, "queries": records}
        metrics, attempted, failed = stats.end_to_end("service-mix", raw)
        self.assertEqual((attempted, failed), (20, 1))
        self.assertAlmostEqual(metrics["success_ratio"], 0.95)

    def test_harness_failures_count_against_attempted(self):
        raw = {"attempted": 8, "failed": 2, "setup_s": [0.1, 0.2, 0.3],
               "peak_rss_mb": 1.0, "op_s": [0.1] * 6, "work": 60, "work_s": 0.6}
        metrics, attempted, failed = stats.end_to_end("cache-resident", raw)
        self.assertEqual((attempted, failed), (8, 2))
        self.assertAlmostEqual(metrics["success_ratio"], 0.75)
        spec = {"end_to_end": [{"name": "success_ratio", "unit": "ratio"}]}
        out = stats.result("cache-resident", raw, 0, spec)
        self.assertFalse(out["correct"])


class DueTimeLatency(unittest.TestCase):
    def test_service_stall_delays_every_query_due_during_it(self):
        # Queries due every 10 ms take 2 ms, except that the service
        # stalls from 100 ms to 300 ms: everything due in that window
        # completes at 300 ms and is charged from its due time.
        records = []
        for i in range(40):
            due = i * 10.0
            done = max(due, 300.0) + 2 if 100 <= due < 300 else due + 2
            records.append(record(due, due, done))
        short, _, lag, _ = stats.query_latencies(records)
        self.assertEqual(short[10], 202.0)
        self.assertEqual(short[29], 12.0)
        self.assertEqual(max(lag), 0.0)
        stats.check_schedule(lag)

    def test_generator_stall_is_charged_and_invalidates_the_run(self):
        # The generator itself stalls for 200 ms: the queries it sends
        # late are charged from their due time, and the run is invalid.
        records = [record(i * 10.0, max(i * 10.0, 250.0), max(i * 10.0, 250.0) + 2)
                   for i in range(40)]
        short, _, lag, _ = stats.query_latencies(records)
        self.assertEqual(short[5], 202.0)
        with self.assertRaises(stats.InvalidRun):
            stats.check_schedule(lag)
        raw = {"attempted": 0, "failed": 0, "setup_s": [0.1],
               "peak_rss_mb": 1.0, "queries": records}
        with self.assertRaises(stats.InvalidRun):
            stats.end_to_end("service-mix", raw)


class Verdict(unittest.TestCase):
    def test_verdicts(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(stats.verdict(parent, [v * 0.8 for v in parent],
                                       "lower", 0.1), "better")
        self.assertEqual(stats.verdict(parent, [v * 1.3 for v in parent],
                                       "lower", 0.1), "worse")
        self.assertEqual(stats.verdict(parent, list(parent), "lower", 0.1),
                         "unchanged")
        noisy = [50, 150, 80, 120, 100, 60, 140, 100, 90, 110]
        self.assertEqual(stats.verdict(parent, noisy, "lower", 0.1),
                         "unresolved")


class TransportDecorator(unittest.TestCase):
    def test_decorator_passes_calls_through_unchanged(self):
        import run
        out = run.build()
        done = subprocess.run([os.path.join(out, "perfbench_harness"),
                               "--selftest"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn('"selftest": true', done.stdout)


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own statistics and of its metric catalogue.

    python3 perfbench/test_stats.py
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_reports_value_count_and_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.5), (50, 100, 50))
        self.assertEqual(stats.percentile(values, 0.9), (90, 100, 10))

    def test_needs_ten_samples_beyond(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(99)), 0.9)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(999)), 0.99)
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile([], 0.5)
        self.assertEqual(stats.percentile(list(range(1000)), 0.99)[2], 10)

    def test_minimum_counts(self):
        # p50 needs 20 samples, p90 100, p99 1000.
        for q, n in ((0.5, 20), (0.9, 100), (0.99, 1000)):
            self.assertEqual(stats.percentile(range(n), q)[2], 10)
            with self.assertRaises(stats.InsufficientSamples):
                stats.percentile(range(n - 1), q)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(stats.percentile(values, 0.5)[0], 3.0)

    def test_failures_sort_last(self):
        values = [1.0] * 30 + [None] * 5
        self.assertEqual(stats.percentile(values, 0.5)[0], 1.0)
        value, _, _ = stats.percentile([None] * 16 + [1.0] * 14, 0.5)
        self.assertTrue(math.isinf(value))

    def test_rejects_bad_quantile(self):
        for q in (0.0, 1.0, 1.5):
            with self.assertRaises(ValueError):
                stats.percentile(range(100), q)


class OpenLoopTiming(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # Due at 10 ms, sent on time, answered at 12 ms.
        latency, lateness = stats.open_loop([(10.0, 10.0, 12.0, True)])
        self.assertEqual(latency, [2.0])
        self.assertEqual(lateness, [0.0])

    def test_generator_lateness_is_charged_to_the_request(self):
        # Due at 10 ms but sent at 15 ms (every connection was busy); the
        # server answered 1 ms after the send.
        latency, lateness = stats.open_loop([(10.0, 15.0, 16.0, True)])
        self.assertEqual(latency, [6.0])
        self.assertEqual(lateness, [5.0])

    def test_failed_request_misses_every_limit(self):
        latency, _ = stats.open_loop([(0.0, 0.0, 1.0, False)])
        self.assertTrue(math.isinf(latency[0]))

    def test_stall_delays_every_request_behind_it(self):
        # Three requests due 1 ms apart; the first takes 10 ms and blocks
        # the only connection, so the next two leave late.
        rows = [(0.0, 0.0, 10.0, True), (1.0, 10.0, 11.0, True),
                (2.0, 11.0, 12.0, True)]
        latency, lateness = stats.open_loop(rows)
        self.assertEqual(latency, [10.0, 10.0, 10.0])
        self.assertEqual(lateness, [0.0, 9.0, 9.0])


class FailedRatio(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.failed_ratio(200, 0), 0.0)
        self.assertEqual(stats.failed_ratio(200, 3), 0.015)
        self.assertEqual(stats.failed_ratio(4, 4), 1.0)

    def test_nothing_attempted_is_a_total_failure(self):
        self.assertEqual(stats.failed_ratio(0, 0), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.failed_ratio(10, 11)
        with self.assertRaises(ValueError):
            stats.failed_ratio(10, -1)

    def test_failures_stay_in_the_end_to_end_numbers(self):
        def raw(failed):
            return {
                "attempted": 100, "failed": failed,
                "series": {"setup_s": [1.0, 2.0, 3.0],
                           "op_ms": [1.0] * (100 - failed) + [None] * failed},
                "scalars": {"peak_rss_mb": 10.0},
            }
        m = run.end_to_end("rank", raw(1))
        self.assertEqual(m.values["op_ms_p50"], 1.0)
        self.assertEqual(m.values["op_ms_tail"], 1.0)
        self.assertEqual(m.values["setup_s"], 2.0)
        # Eleven failed jobs put the p90 on a failure: it misses every limit.
        m = run.end_to_end("rank", raw(11))
        self.assertEqual(m.values["op_ms_tail"], run.MISSED_MS)


class Catalogue(unittest.TestCase):
    def test_matches_benchmark_json(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            run.PER_LAYER)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()

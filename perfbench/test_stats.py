#!/usr/bin/env python3
"""Checks the benchmark's own arithmetic on hand-computed inputs, and that
run.py reports exactly the metrics BENCHMARK.json declares.

    python3 perfbench/test_stats.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402


def span(start, end, parent=-1, name="x", round_=0):
    return {"start": start, "end": end, "parent": parent, "name": name,
            "round": round_}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_exclusive_method(self):
        # statistics.quantiles' default method on 1..8: positions
        # (n+1)p = 2.25, 4.5, 6.75 -> 2.25, 4.5, 6.75.
        self.assertEqual(stats.quartiles([float(i) for i in range(1, 9)]),
                         (2.25, 4.5, 6.75))

    def test_summary(self):
        self.assertEqual(
            stats.summary([float(i) for i in range(1, 9)]),
            {"n": 8, "median": 4.5, "q1": 2.25, "q3": 6.75,
             "tail_pct": 100.0, "tail": 8.0})
        self.assertEqual(stats.summary([3.0]),
                         {"n": 1, "median": 3.0, "tail_pct": 100.0,
                          "tail": 3.0})


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 11)]  # 1..10
        self.assertEqual(stats.percentile(values, 50.0), 5.0)
        self.assertEqual(stats.percentile(values, 90.0), 9.0)
        self.assertEqual(stats.percentile(values, 99.0), 10.0)
        self.assertEqual(stats.percentile(values, 0.0), 1.0)

    def test_tail_percentile_needs_ten_beyond(self):
        # p99 of 1000 samples is rank 990: exactly 10 beyond.
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        # 999 samples: p99 is rank 990, 9 beyond; p90 is rank 900.
        self.assertEqual(stats.tail_percentile(999), 90.0)
        # 100: p90 is rank 90, 10 beyond.
        self.assertEqual(stats.tail_percentile(100), 90.0)
        # 40: p75 is rank 30, 10 beyond.
        self.assertEqual(stats.tail_percentile(40), 75.0)
        # 20: p50 is rank 10, 10 beyond.
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(1))

    def test_tail_value(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        self.assertEqual(stats.tail(values), (90.0, 90.0))
        self.assertEqual(stats.tail([5.0, 1.0, 3.0]), (100.0, 5.0))


class OfferShares(unittest.TestCase):
    def test_shares(self):
        self.assertEqual(stats.completed_share(200, 0), 1.0)
        # 50 of 200 offers in failed calls: failed_offer_share 0.25.
        self.assertEqual(stats.completed_share(200, 50), 0.75)
        self.assertEqual(stats.completed_share(200, 200), 0.0)

    def test_nothing_submitted_is_nothing_completed(self):
        self.assertEqual(stats.completed_share(0, 0), 0.0)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(0, 10)]), [10.0])

    def test_children_are_subtracted(self):
        spans = [span(0, 100), span(10, 30, 0), span(50, 60, 0)]
        self.assertEqual(stats.self_times(spans), [70.0, 20.0, 10.0])

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span(0, 100), span(10, 60, 0), span(20, 40, 1)]
        self.assertEqual(stats.self_times(spans), [50.0, 30.0, 20.0])

    def test_overlapping_children_count_once(self):
        spans = [span(0, 100), span(10, 50, 0), span(30, 70, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 50), span(40, 80, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40.0)

    def test_layer_summary_per_round(self):
        spans = [
            span(0, 100, name="call", round_=0),
            span(10, 20, 0, "fusion", 0),
            span(30, 60, 0, "fusion", 0),
            span(200, 300, name="call", round_=1),
            span(210, 230, 3, "fusion", 1),
        ]
        own = stats.self_times(spans)
        fusion = stats.layer_summary(spans, own, "fusion")
        self.assertEqual(fusion["busy_us_by_round"], [40.0, 20.0])
        self.assertEqual(fusion["busy_us"], 30.0)
        self.assertEqual(fusion["calls"], 1.5)
        self.assertEqual(fusion["samples"], 3)
        self.assertEqual(fusion["p50_us"], 20.0)
        self.assertEqual((fusion["tail_pct"], fusion["tail_us"]),
                         (100.0, 30.0))
        call = stats.layer_summary(spans, own, "call")
        self.assertEqual(call["busy_us_by_round"], [60.0, 80.0])

    def test_spans_from_chrome_trace(self):
        doc = {"traceEvents": [
            {"name": "b", "ph": "X", "ts": 5.0, "dur": 2.0,
             "args": {"span": 1, "parent": 0, "round": 0, "depth": 1}},
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0,
             "args": {"span": 0, "parent": -1, "round": 0, "depth": 0}},
        ]}
        spans = stats.spans_from_trace(doc)
        self.assertEqual([s["name"] for s in spans], ["a", "b"])
        self.assertEqual(stats.self_times(spans), [8.0, 2.0])


class DeclaredMetrics(unittest.TestCase):
    def test_run_reports_what_benchmark_json_declares(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        declared = json.loads(path.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in declared["per_layer"]},
            run.PER_LAYER)
        self.assertEqual(
            tuple(w["name"] for w in declared["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()

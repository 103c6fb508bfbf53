#!/usr/bin/env python3
"""Unit tests of the benchmark's metric helpers.

    python3 -m unittest discover -s ciaobench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import steady  # noqa: E402


def span(sid, name, start, end, parent=-1, run=1, **attrs):
    return {"id": sid, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "run": run, "attrs": attrs}


class PercentileSupportTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(metrics.percentile_supported(1000, 0.99))
        self.assertFalse(metrics.percentile_supported(999, 0.99))
        self.assertTrue(metrics.percentile_supported(100, 0.90))
        self.assertFalse(metrics.percentile_supported(99, 0.90))
        self.assertTrue(metrics.percentile_supported(20, 0.50))
        self.assertFalse(metrics.percentile_supported(19, 0.50))
        self.assertFalse(metrics.percentile_supported(0, 0.50))

    def test_unsupported_percentile_is_missing(self):
        self.assertIsNone(metrics.percentile(list(range(999)), 0.99))

    def test_nearest_rank(self):
        samples = list(range(1000, 0, -1))  # 1..1000, unsorted
        self.assertEqual(metrics.percentile(samples, 0.99), 990)
        self.assertEqual(metrics.percentile(samples, 0.50), 500)
        # Exactly ten samples (991..1000) lie beyond the reported p99.
        self.assertEqual(sum(s > 990 for s in samples), 10)

    def test_end_to_end_drops_unsupported_percentiles(self):
        rep = {"traced": 0, "setup_s": [1.0], "e2e_s": 2.0, "ingest_s": [0.01] * 99,
               "records_acked": 99000, "query_s": [0.001] * 1000, "prefilter_s": 0.1,
               "prefilter_records": 1000, "stored_bytes": 50, "rss_peak_bytes": 3 << 20}
        doc = {"reps": [rep], "input_bytes": 100, "rss_baseline_bytes": 1 << 20}
        values = metrics.end_to_end(doc)
        self.assertIn("query_p99_us", values)
        self.assertIn("ingest_ack_p50_ms", values)
        self.assertNotIn("ingest_ack_p90_ms", values)
        self.assertAlmostEqual(values["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(values["client_us_per_record"], 100.0)


class RunAggregationTest(unittest.TestCase):
    def rep(self, e2e, query_s, ingest_s):
        return {"traced": 0, "setup_s": [e2e / 10, e2e / 20, e2e / 5], "e2e_s": e2e, "ingest_s": ingest_s,
                "records_acked": 1000 * len(ingest_s), "query_s": query_s,
                "prefilter_s": e2e / 100, "prefilter_records": 1000, "stored_bytes": 50,
                "rss_peak_bytes": 2 << 20}

    def test_best_repetition_for_times_rates_and_medians(self):
        doc = {"input_bytes": 100, "rss_baseline_bytes": 1 << 20, "reps": [
            self.rep(2.0, [0.002] * 500, [0.02] * 50),
            self.rep(1.0, [0.001] * 500, [0.01] * 50),
            self.rep(3.0, [0.003] * 500, [0.03] * 50)]}
        values = metrics.end_to_end(doc)
        self.assertEqual(values["e2e_s"], 1.0)
        self.assertAlmostEqual(values["query_p50_us"], 1000.0)
        self.assertAlmostEqual(values["ingest_ack_p50_ms"], 10.0)
        self.assertAlmostEqual(values["queries_per_s"], 1000.0)
        self.assertAlmostEqual(values["ingest_records_per_s"], 100000.0)
        self.assertAlmostEqual(values["client_us_per_record"], 10.0)
        # Best of the repetitions' median set-up rounds (0.2, 0.1, 0.3).
        self.assertAlmostEqual(values["setup_s"], 0.1)

    def test_tails_pool_every_repetition(self):
        # No repetition alone supports p99 or p90; pooled they do, and the
        # slow repetition's samples make the tail.
        doc = {"input_bytes": 100, "rss_baseline_bytes": 1 << 20, "reps": [
            self.rep(1.0, [0.001] * 500, [0.01] * 50),
            self.rep(3.0, [0.003] * 500, [0.03] * 50)]}
        values = metrics.end_to_end(doc)
        self.assertAlmostEqual(values["query_p99_us"], 3000.0)
        self.assertAlmostEqual(values["ingest_ack_p90_ms"], 30.0)
        self.assertIsNone(metrics.percentile([0.003] * 500, 0.99))


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted_from_parent(self):
        spans = [span(0, "timed", 0, 100),
                 span(1, "ExecuteQuery", 10, 30, parent=0),
                 span(2, "ExecuteQuery", 50, 90, parent=0)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st["timed"], 40e-9)
        self.assertAlmostEqual(st["ExecuteQuery"], 60e-9)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, "rep", 0, 100),
                 span(1, "setup", 0, 60, parent=0),
                 span(2, "Bootstrap", 10, 50, parent=1)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st["rep"], 40e-9)
        self.assertAlmostEqual(st["setup"], 20e-9)
        self.assertAlmostEqual(st["Bootstrap"], 40e-9)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(0, "p", 0, 100),
                 span(1, "a", 10, 60, parent=0),
                 span(2, "b", 40, 80, parent=0),
                 span(3, "c", 90, 120, parent=0)]
        self.assertAlmostEqual(metrics.self_times(spans)["p"], 20e-9)


class RssBaselineTest(unittest.TestCase):
    def test_baseline_subtracted(self):
        self.assertAlmostEqual(metrics.rss_growth_mb(300 << 20, 100 << 20), 200.0)

    def test_peak_below_baseline_is_zero(self):
        self.assertEqual(metrics.rss_growth_mb(90 << 20, 100 << 20), 0.0)


class PerLayerTest(unittest.TestCase):
    def test_ingest_residual_and_overhead(self):
        reps = [
            {"traced": 0, "e2e_s": 1.0},
            {"traced": 1, "e2e_s": 1.5, "pushed": 3, "records_loaded": 5, "records_in": 10,
             "rows_sidelined": 5, "segments_spilled": 0, "wal_bytes_at_crash": 0,
             "replans": 0, "relayouts": 0},
        ]
        ms = 1000000
        spans = [span(0, "rep", 0, 100 * ms),
                 span(1, "setup", 0, 10 * ms, parent=0),
                 span(2, "Bootstrap", 0, 10 * ms, parent=1),
                 span(3, "timed", 10 * ms, 100 * ms, parent=0),
                 span(6, "setup", 0, 0, parent=0),
                 span(7, "Bootstrap", 0, 2 * ms, parent=6),
                 span(8, "setup", 0, 0, parent=0),
                 span(9, "Bootstrap", 0, 30 * ms, parent=8),
                 span(4, "IngestRecords", 10 * ms, 20 * ms, parent=3, prefilter_s=0.001,
                      parse_s=0.004, encode_s=0.002),
                 span(5, "ExecuteQuery", 20 * ms, 90 * ms, parent=3, skipping=1.0,
                      groups_considered=10.0, groups_skipped=4.0)]
        reps[1]["spans"] = spans
        values = metrics.per_layer({"reps": reps})
        self.assertEqual(set(values), set(metrics.PER_LAYER_UNITS))
        self.assertAlmostEqual(values["storage.ingest_residual_ms"], 3.0)
        # Median over the three set-up rounds' Bootstrap spans.
        self.assertAlmostEqual(values["optimizer.bootstrap_s"], 0.010)
        self.assertAlmostEqual(values["engine.skipping_query_s"], 0.070)
        self.assertAlmostEqual(values["engine.groups_skipped_ratio"], 0.4)
        self.assertAlmostEqual(values["trace.harness_self_s"], 0.010)
        self.assertAlmostEqual(values["trace.overhead_s"], 0.5)
        self.assertAlmostEqual(values["storage.loading_ratio"], 0.5)


class SpreadTest(unittest.TestCase):
    def test_iqr_relative_to_median(self):
        med, q1, q3, rel = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(rel, (q3 - q1) / 3.0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests for the compare_bench.py regression gate.

Run directly (registered in ctest as `compare_bench_gate_test`):
  python3 bench/compare_bench_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "compare_bench.py")


def run_gate(entries, baseline, tolerance=0.15):
    """Runs the gate on synthetic report/baseline docs; returns
    (exit_code, stdout+stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        baseline_path = os.path.join(tmp, "baseline.json")
        with open(report_path, "w") as f:
            json.dump({"entries": entries}, f)
        with open(baseline_path, "w") as f:
            json.dump({"entries": baseline}, f)
        proc = subprocess.run(
            [sys.executable, GATE, report_path, "--baseline", baseline_path,
             "--tolerance", str(tolerance)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


class CompareBenchGateTest(unittest.TestCase):
    def test_pass_within_tolerance(self):
        code, out = run_gate(
            {"scan": {"items_per_second": 95.0}},
            {"scan": {"items_per_second": 100.0}})
        self.assertEqual(code, 0, out)
        self.assertIn("PASS", out)

    def test_higher_is_better_regression_fails(self):
        code, out = run_gate(
            {"scan": {"items_per_second": 50.0}},
            {"scan": {"items_per_second": 100.0}})
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)

    def test_lower_is_better_regression_fails(self):
        code, out = run_gate(
            {"fig5": {"query_seconds": 0.5}},
            {"fig5": {"query_seconds": 0.1}})
        self.assertEqual(code, 1, out)

    def test_lower_is_better_improvement_passes(self):
        code, out = run_gate(
            {"fig5": {"query_seconds": 0.05}},
            {"fig5": {"query_seconds": 0.1}})
        self.assertEqual(code, 0, out)

    def test_zero_baseline_lower_is_better_fails_on_nonzero_current(self):
        # The regression this test pins down: a perfect-score baseline
        # (0 bytes decoded) used to make the cell ungateable, so decode
        # volume could regrow arbitrarily without failing the gate.
        code, out = run_gate(
            {"grouping": {"bytes_decoded": 1234567.0}},
            {"grouping": {"bytes_decoded": 0.0}})
        self.assertEqual(code, 1, out)
        self.assertIn("was zero", out)

    def test_zero_baseline_zero_current_passes(self):
        code, out = run_gate(
            {"grouping": {"bytes_decoded": 0.0}},
            {"grouping": {"bytes_decoded": 0.0}})
        self.assertEqual(code, 0, out)

    def test_zero_baseline_higher_is_better_not_gated(self):
        # higher-is-better with base 0 stays ungated (no division, and a
        # rise is an improvement anyway).
        code, out = run_gate(
            {"skew": {"groups_skipped": 10.0}},
            {"skew": {"groups_skipped": 0.0}})
        self.assertEqual(code, 0, out)

    def test_sub_noise_timer_baseline_stays_skipped(self):
        # Baselines under the 1 ms noise floor (but nonzero) are still
        # skipped: they measure timer jitter, not work.
        code, out = run_gate(
            {"fig5": {"query_seconds": 0.5}},
            {"fig5": {"query_seconds": 0.0005}})
        self.assertEqual(code, 0, out)

    def test_zero_timer_baseline_fails_on_real_current(self):
        # base exactly 0 with current above the noise floor: the cell did
        # no timed work before and does now — fail, not skip.
        code, out = run_gate(
            {"fig5": {"query_seconds": 0.5}},
            {"fig5": {"query_seconds": 0.0}})
        self.assertEqual(code, 1, out)

    def test_zero_timer_baseline_noise_current_passes(self):
        code, out = run_gate(
            {"fig5": {"query_seconds": 0.0005}},
            {"fig5": {"query_seconds": 0.0}})
        self.assertEqual(code, 0, out)

    def test_loading_seconds_regression_fails(self):
        code, out = run_gate(
            {"fig5": {"loading_seconds": 0.2}},
            {"fig5": {"loading_seconds": 0.08}})
        self.assertEqual(code, 1, out)
        self.assertIn("loading_seconds", out)

    def test_loading_seconds_within_tolerance_passes(self):
        code, out = run_gate(
            {"fig5": {"loading_seconds": 0.085}},
            {"fig5": {"loading_seconds": 0.08}})
        self.assertEqual(code, 0, out)
        self.assertIn("[ok       ] fig5/loading_seconds", out)

    def test_sub_noise_loading_baseline_stays_skipped(self):
        code, out = run_gate(
            {"fig5": {"loading_seconds": 0.5}},
            {"fig5": {"loading_seconds": 0.0005}})
        self.assertEqual(code, 0, out)

    def test_ingest_throughput_regression_fails(self):
        code, out = run_gate(
            {"fig5": {"ingest_records_per_second": 50000.0}},
            {"fig5": {"ingest_records_per_second": 100000.0}})
        self.assertEqual(code, 1, out)
        self.assertIn("ingest_records_per_second", out)

    def test_ingest_throughput_improvement_passes(self):
        code, out = run_gate(
            {"fig5": {"ingest_records_per_second": 150000.0}},
            {"fig5": {"ingest_records_per_second": 100000.0}})
        self.assertEqual(code, 0, out)
        self.assertIn("[ok       ] fig5/ingest_records_per_second", out)

    def test_missing_entry_does_not_fail(self):
        code, out = run_gate(
            {}, {"scan": {"items_per_second": 100.0}})
        # No entries at all in the report is an error...
        self.assertEqual(code, 1, out)
        code, out = run_gate(
            {"other": {"items_per_second": 5.0}},
            {"scan": {"items_per_second": 100.0},
             "other": {"items_per_second": 5.0}})
        # ...but a baseline entry absent from the run only warns.
        self.assertEqual(code, 0, out)
        self.assertIn("missing", out)

    def test_new_entry_reported_not_gated(self):
        code, out = run_gate(
            {"scan": {"items_per_second": 100.0},
             "fresh": {"items_per_second": 1.0}},
            {"scan": {"items_per_second": 100.0}})
        self.assertEqual(code, 0, out)
        self.assertIn("NEW", out)


if __name__ == "__main__":
    unittest.main()

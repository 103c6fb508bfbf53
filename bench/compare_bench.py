#!/usr/bin/env python3
"""Bench regression gate for the release-bench CI job.

Compares the merged hot-path bench report (BENCH_hotpath.json, written by
bench/bench_report.h) against the checked-in baseline snapshot and fails
when any shared entry regressed by more than the tolerance (default 15%)
on a gated metric: items_per_second (higher is better) or — for the e2e
figure cells — prefilter_seconds, query_seconds and loading_seconds
(lower is better; cells whose baseline time is under 1 ms do no real
work on that metric and sit in timer noise, so they are skipped) and
ingest_records_per_second (higher is better).

Usage:
  compare_bench.py REPORT [--baseline BASELINE] [--tolerance 0.15]

The baseline is taken from the report's embedded "baseline" section when
present (CIAO_BENCH_BASELINE was set during the run), else from
--baseline. Entries present on only one side are reported but do not
fail the gate (benches come and go); only measured regressions do.
Tolerance can also be set via CIAO_BENCH_GATE_TOLERANCE.
"""

import argparse
import json
import os
import sys

# metric -> (higher_is_better, min_baseline_to_gate)
METRICS = {
    "items_per_second": (True, 0.0),
    "prefilter_seconds": (False, 1e-3),
    "query_seconds": (False, 1e-3),
    # Server-side ingest of the fig5 cells: load wall time and throughput.
    "loading_seconds": (False, 1e-3),
    "ingest_records_per_second": (True, 0.0),
    # Row groups pruned before decode (relayout skew cell): a drop means
    # clustering or the density/zone-map skip path stopped firing.
    "groups_skipped": (True, 0.0),
    # Physical decode volume (column grouping cell): growth means the
    # mined vertical layout stopped covering the projection workload and
    # queries are decoding chunk-mate or whole-row bytes again.
    "bytes_decoded": (False, 0.0),
}


def load_entries(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("entries", {}), doc.get("baseline", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_hotpath.json from the run")
    parser.add_argument("--baseline", help="baseline JSON (fallback when the "
                        "report has no embedded baseline)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "CIAO_BENCH_GATE_TOLERANCE", "0.15")),
                        help="max allowed fractional regression (0.15 = 15%%)")
    args = parser.parse_args()

    entries, embedded_baseline = load_entries(args.report)
    baseline = embedded_baseline
    if not baseline and args.baseline:
        baseline, _ = load_entries(args.baseline)
    if not baseline:
        print("no baseline available: gate skipped")
        return 0
    if not entries:
        print(f"ERROR: {args.report} has no entries", file=sys.stderr)
        return 1

    regressions = []
    compared = 0
    for key, base_metrics in sorted(baseline.items()):
        for metric, (higher_is_better, min_baseline) in METRICS.items():
            base = base_metrics.get(metric)
            if base is None:
                continue
            if base <= min_baseline:
                # A lower-is-better metric with a zero baseline is a
                # perfect score (0 bytes decoded, 0 seconds): any nonzero
                # current value above the noise floor is a real
                # regression, not an ungateable cell. (base/cur division
                # is impossible here, so gate on the absolute value.)
                cur = entries.get(key, {}).get(metric)
                if (not higher_is_better and base == 0 and cur is not None
                        and cur > min_baseline):
                    compared += 1
                    print(f"  [REGRESSED] {key}/{metric}: "
                          f"{base:.4g} -> {cur:.4g} (was zero)")
                    regressions.append((f"{key}/{metric}", base, cur,
                                        float("-inf")))
                continue
            cur = entries.get(key, {}).get(metric)
            if cur is None:
                print(f"  [missing ] {key}/{metric} "
                      f"(baseline {base:.3g}, not in run)")
                continue
            compared += 1
            # delta > 0 always means "improved".
            delta = (cur - base) / base if higher_is_better \
                else (base - cur) / base
            marker = "ok" if delta >= -args.tolerance else "REGRESSED"
            print(f"  [{marker:9s}] {key}/{metric}: {base:.4g} -> {cur:.4g} "
                  f"({delta:+.1%})")
            if delta < -args.tolerance:
                regressions.append((f"{key}/{metric}", base, cur, delta))

    # Cells present only in the new run: gated metrics the baseline lacks
    # are printed per cell with their value; keys carrying only un-gated
    # metrics still get a whole-key line. Reported (never gated) so a
    # fresh bench's numbers are visible in the CI log before the baseline
    # is next regenerated — not silently dropped.
    for key, metrics in sorted(entries.items()):
        base_metrics = baseline.get(key)
        printed_cell = False
        for metric in sorted(metrics):
            if metric not in METRICS:
                continue
            if base_metrics is None or metric not in base_metrics:
                print(f"  [NEW      ] {key}/{metric}: "
                      f"{metrics[metric]:.4g} (no baseline)")
                printed_cell = True
        if base_metrics is None and not printed_cell:
            print(f"  [NEW      ] {key} (no baseline)")

    print(f"\ncompared {compared} entries, tolerance {args.tolerance:.0%}")
    if regressions:
        print(f"FAIL: {len(regressions)} entries regressed more than "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for key, base, cur, delta in regressions:
            print(f"  {key}: {base:.4g} -> {cur:.4g} ({delta:+.1%})",
                  file=sys.stderr)
        return 1
    print("PASS: no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

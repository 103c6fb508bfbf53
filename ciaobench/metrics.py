"""Turns the harness's raw measurements into the benchmark's metrics.

The harness (harness.cc) prints one JSON document per run: per-repetition
latency samples, counters and timings, plus a span file for traced runs.
Everything here is pure computation over that document, so the rules the
numbers rest on (percentile support, span self time, RSS baseline) are
unit-tested in test_metrics.py.
"""

import math
import statistics

MIB = 1024.0 * 1024.0

# Name -> unit of every end-to-end metric a plain run reports;
# BENCHMARK.json lists exactly these.
END_TO_END_UNITS = {
    "setup_s": "s",
    "e2e_s": "s",
    "ingest_records_per_s": "rec/s",
    "ingest_ack_p50_ms": "ms",
    "ingest_ack_p90_ms": "ms",
    "client_us_per_record": "us",
    "queries_per_s": "q/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "stored_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}

# Name -> unit of every per-layer metric a traced run reports.
PER_LAYER_UNITS = {
    "optimizer.bootstrap_s": "s",
    "client.prefilter_s": "s",
    "client.predicates_pushed": "count",
    "storage.loader_parse_s": "s",
    "storage.loader_encode_s": "s",
    "storage.loading_ratio": "ratio",
    "storage.rows_sidelined": "count",
    "storage.ingest_residual_ms": "ms",
    "storage.wal_append_ms": "ms",
    "storage.checkpoint_s": "s",
    "storage.checkpoints_completed": "count",
    "storage.segments_spilled": "count",
    "storage.bytes_mapped": "bytes",
    "storage.segments_mapped": "count",
    "storage.map_verify_ms": "ms",
    "storage.wal_bytes_at_crash": "bytes",
    "storage.recovery_s": "s",
    "engine.rows_decoded": "count",
    "engine.rows_evaluated": "count",
    "columnar.bytes_decoded": "bytes",
    "columnar.bytes_decode_waste": "bytes",
    "engine.groups_considered": "count",
    "engine.groups_skipped_ratio": "ratio",
    "engine.groups_counted_exact": "count",
    "engine.skipping_query_s": "s",
    "engine.fullscan_query_s": "s",
    "engine.raw_records_scanned": "count",
    "engine.raw_records_screened_out": "count",
    "core.jit_promoted_rows": "count",
    "core.replans_installed": "count",
    "core.relayouts_performed": "count",
    "core.rewrite_query_s": "s",
    "trace.harness_self_s": "s",
    "trace.overhead_s": "s",
}

# Facade calls made inside the timed phase; the per-layer metrics sum
# their counter deltas.
FACADE_CALLS = ("IngestRecords", "ExecuteQuery", "CompactAndCheckpoint")


def percentile_supported(n, p):
    """True when at least ten of `n` samples lie beyond the p-quantile."""
    if n <= 0:
        return False
    return n - math.ceil(p * n) >= 10


def percentile(samples, p):
    """Nearest-rank p-quantile, or None without percentile support."""
    n = len(samples)
    if not percentile_supported(n, p):
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * n) - 1)]


def rss_growth_mb(peak_bytes, baseline_bytes):
    """Peak RSS above the post-input-generation baseline, in MiB."""
    return max(0, peak_bytes - baseline_bytes) / MIB


def self_times(spans):
    """Self time in seconds per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are merged so no instant
    is subtracted twice.
    """
    children = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(span)
    totals = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span["name"]] = totals.get(span["name"], 0.0) + (end - start - covered) * 1e-9
    return totals


def _median(values):
    return statistics.median(values) if values else 0.0


def pooled_percentile(per_rep_samples, p):
    """p-quantile of every repetition's samples pooled (None without
    support)."""
    return percentile([s for samples in per_rep_samples for s in samples], p)


def best(values, lower_is_better=True):
    """The best of the repetitions' values (None if there are none)."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return min(values) if lower_is_better else max(values)


def end_to_end(doc):
    """End-to-end metrics of a plain run: name -> value.

    Co-tenants on a shared host only ever slow a repetition down, and they
    come in bursts of seconds, so a run reports, for the end-to-end time,
    the rates and the medians, its best repetition's value. The harness
    fixes the number of repetitions from --seconds and the workload, so
    the best-of sees as many repetitions on every commit. Set-up time is
    a repetition's median set-up round, and then its best repetition like
    the other times. Tail percentiles pool every repetition, so slow cases
    still show. Sizes are medians over repetitions. A metric without
    percentile support is missing from the result.
    """
    reps = [r for r in doc["reps"] if not r["traced"]]
    out = {
        "setup_s": best([_median(r["setup_s"]) for r in reps]),
        "e2e_s": best([r["e2e_s"] for r in reps]),
        "ingest_records_per_s": best(
            [r["records_acked"] / sum(r["ingest_s"]) for r in reps if r["ingest_s"]],
            lower_is_better=False),
        "queries_per_s": best(
            [len(r["query_s"]) / sum(r["query_s"]) for r in reps if r["query_s"]],
            lower_is_better=False),
        "client_us_per_record": best(
            [1e6 * r["prefilter_s"] / r["prefilter_records"]
             for r in reps if r["prefilter_records"] > 0]),
        "ingest_ack_p50_ms": best([percentile(r["ingest_s"], 0.50) for r in reps]),
        "query_p50_us": best([percentile(r["query_s"], 0.50) for r in reps]),
        "ingest_ack_p90_ms": pooled_percentile([r["ingest_s"] for r in reps], 0.90),
        "query_p99_us": pooled_percentile([r["query_s"] for r in reps], 0.99),
        "stored_bytes_per_input_byte": _median(
            [r["stored_bytes"] / doc["input_bytes"] for r in reps]),
        "peak_rss_mb": _median(
            [rss_growth_mb(r["rss_peak_bytes"], doc["rss_baseline_bytes"]) for r in reps]),
    }
    for name, scale in (("ingest_ack_p50_ms", 1e3), ("ingest_ack_p90_ms", 1e3),
                        ("query_p50_us", 1e6), ("query_p99_us", 1e6)):
        if out[name] is not None:
            out[name] *= scale
    return {name: value for name, value in out.items() if value is not None}


def recovery_s(doc):
    """Median crash-image reopen time over every reopen of the run, or None."""
    times = [t for r in doc["reps"] if not r["traced"] for t in r["recovery_s"]]
    return _median(times) if times else None


def _dur(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def per_layer(doc):
    """Per-layer metrics of a traced run: name -> value (median over the
    traced repetitions), attributed from each repetition's spans and their
    counter deltas."""
    traced = [r for r in doc["reps"] if r["traced"]]
    untraced = [r for r in doc["reps"] if not r["traced"]]
    per_rep = []
    for rep in traced:
        mine = rep["spans"]
        spans_by_id = {s["id"]: s for s in mine}
        timed = next(s for s in mine if s["name"] == "timed")
        calls = [s for s in mine if s["parent"] == timed["id"] and s["name"] in FACADE_CALLS]
        ingests = [c for c in calls if c["name"] == "IngestRecords"]
        queries = [c for c in calls if c["name"] == "ExecuteQuery"]
        checkpoints = [c for c in calls if c["name"] == "CompactAndCheckpoint"]

        def total(items, key):
            return sum(c["attrs"].get(key, 0.0) for c in items)

        def durations(name):
            return [_dur(s) for s in mine if s["name"] == name]

        considered = total(queries, "groups_considered")
        m = {
            "optimizer.bootstrap_s": _median([
                _dur(s) for s in mine
                if s["name"] == "Bootstrap" and spans_by_id[s["parent"]]["name"] == "setup"]),
            "client.prefilter_s": total(ingests, "prefilter_s"),
            "client.predicates_pushed": rep["pushed"],
            "storage.loader_parse_s": total(ingests, "parse_s"),
            "storage.loader_encode_s": total(ingests, "encode_s"),
            "storage.loading_ratio": (rep["records_loaded"] / rep["records_in"]
                                      if rep["records_in"] else 1.0),
            "storage.rows_sidelined": rep["rows_sidelined"],
            "storage.ingest_residual_ms": 1e3 * _median([
                _dur(c) - c["attrs"]["prefilter_s"] - c["attrs"]["parse_s"]
                - c["attrs"]["encode_s"] for c in ingests]),
            "storage.wal_append_ms": 1e3 * _median(durations("WriteAheadLog::Append")),
            "storage.checkpoint_s": sum(_dur(c) for c in checkpoints),
            "storage.checkpoints_completed": total(checkpoints, "checkpoints"),
            "storage.segments_spilled": rep["segments_spilled"],
            "storage.bytes_mapped": total(queries, "bytes_mapped"),
            "storage.segments_mapped": total(queries, "segments_mapped"),
            "storage.map_verify_ms": 1e3 * _median(durations("PinSegment")),
            "storage.wal_bytes_at_crash": rep["wal_bytes_at_crash"],
            "storage.recovery_s": _median(durations("reopen")),
            "engine.rows_decoded": total(queries, "rows_decoded"),
            "engine.rows_evaluated": total(queries, "rows_evaluated"),
            "columnar.bytes_decoded": total(queries, "bytes_decoded"),
            "columnar.bytes_decode_waste": total(queries, "bytes_decode_waste"),
            "engine.groups_considered": considered,
            "engine.groups_skipped_ratio": (total(queries, "groups_skipped") / considered
                                            if considered else 0.0),
            "engine.groups_counted_exact": total(queries, "groups_counted_exact"),
            "engine.skipping_query_s": sum(
                _dur(q) for q in queries if q["attrs"].get("skipping", 0.0) > 0),
            "engine.fullscan_query_s": sum(
                _dur(q) for q in queries if q["attrs"].get("skipping", 0.0) == 0),
            "engine.raw_records_scanned": total(queries, "raw_records_scanned"),
            "engine.raw_records_screened_out": total(queries, "raw_records_screened_out"),
            "core.jit_promoted_rows": total(queries, "jit_promoted"),
            "core.replans_installed": rep["replans"],
            "core.relayouts_performed": rep["relayouts"],
            "core.rewrite_query_s": sum(
                _dur(q) for q in queries
                if q["attrs"].get("replans", 0.0) > 0 or q["attrs"].get("relayouts", 0.0) > 0),
            "trace.harness_self_s": self_times([timed] + calls)["timed"],
        }
        per_rep.append(m)
    out = {name: _median([m[name] for m in per_rep]) for name in PER_LAYER_UNITS
           if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (_median([r["e2e_s"] for r in traced])
                               - _median([r["e2e_s"] for r in untraced]))
    return out

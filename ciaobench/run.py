#!/usr/bin/env python3
"""End-to-end benchmark of the CIAO pipeline.

    python3 ciaobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness from the checkout's sources (Release, into
.bench_build/), runs one workload for about --seconds (a repetition count
fixed by --seconds and the workload), checks every answer, and prints
each metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics; --trace 1 reports the per-layer metrics of
a traced run and its overhead against untraced repetitions. Exits non-zero
on any failed operation, wrong answer or build error. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
HARNESS = os.path.join(BUILD_DIR, "ciaobench", "ciaobench_harness")


def build():
    """Configures and builds the harness; build output goes to stderr."""
    out_dir = os.path.dirname(HARNESS)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))


def check_pushed_set(doc):
    """Determinism guard: every repetition, and every run of the same seed
    with the same harness binary, must push the same predicate set."""
    keys = {r["pushed_key"] for r in doc["reps"]}
    if len(keys) != 1:
        return False
    key = keys.pop()
    with open(HARNESS, "rb") as f:
        binary = hashlib.sha1(f.read()).hexdigest()[:16]
    path = os.path.join(WORK_DIR, "pushed-%s-seed%d-%s.txt"
                        % (doc["workload"], doc["seed"], binary))
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == key
    with open(path, "w") as f:
        f.write(key + "\n")
    return True


def write_spans(doc):
    """Writes every traced repetition's spans, tagged with its index."""
    path = os.path.join(WORK_DIR, "spans-%s-seed%d.json" % (doc["workload"], doc["seed"]))
    with open(path, "w") as f:
        json.dump([dict(s, run=i) for i, r in enumerate(doc["reps"]) for s in r["spans"]], f)


def print_report(doc, values, units):
    first = doc["reps"][0]
    print("workload %s  seed %d  records %d (%.1f MB)  distinct queries %d  repetitions %d"
          % (doc["workload"], doc["seed"], doc["input_records"], doc["input_bytes"] / 1e6,
             doc["distinct_queries"], len(doc["reps"])))
    print("determinism: predicates_pushed=%d pushed_set=%s loaded_rows=%d/%d "
          "skipping_queries=%d/%d relayouts_performed=%s replans_installed=%s"
          % (first["pushed"], first["pushed_key"], first["records_loaded"],
             first["records_in"], first["queries_skipping"], len(first["query_s"]),
             [r["relayouts"] for r in doc["reps"]], [r["replans"] for r in doc["reps"]]))
    samples_q = sum(len(r["query_s"]) for r in doc["reps"] if not r["traced"])
    samples_i = sum(len(r["ingest_s"]) for r in doc["reps"] if not r["traced"])
    print("samples: %d queries, %d ingest calls" % (samples_q, samples_i))
    for name, value in values.items():
        print("  %-32s %16.6f %s" % (name, value, units[name]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        help="ycsb_load_query, ycsb_ooc_mixed or winlog_drift")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ)
    # The plan must come from the uncalibrated default cost model.
    env.pop("CIAO_PROFILE", None)
    proc = subprocess.run(
        [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", WORK_DIR],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env)
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        raise SystemExit("harness exited %d without a result" % proc.returncode)

    # A repetition that died counts as one failed operation.
    errors = list(doc["errors"]) + [e for r in doc["reps"] for e in r["errors"]]
    attempted = sum(r["attempted"] for r in doc["reps"]) + len(doc["errors"])
    failed = sum(r["failed"] for r in doc["reps"]) + len(doc["errors"])
    if not doc["reps"]:
        raise SystemExit("no repetition completed: %s" % errors)
    if not check_pushed_set(doc):
        errors.append("pushed predicate set differs between runs of seed %d" % args.seed)
        failed += 1
    if args.trace:
        write_spans(doc)
        values = metrics.per_layer(doc)
        units = metrics.PER_LAYER_UNITS
        totals = {}
        for rep in doc["reps"]:
            for name, seconds in metrics.self_times(rep["spans"]).items():
                totals[name] = totals.get(name, 0.0) + seconds
        print("self time per span, summed over traced repetitions:")
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            print("  %-32s %12.6f s" % (name, seconds))
    else:
        values = metrics.end_to_end(doc)
        units = metrics.END_TO_END_UNITS
        missing = [name for name in units if name not in values]
        if missing:
            errors.append("metrics without percentile support: %s" % missing)
            failed += 1
        recovery = metrics.recovery_s(doc)
        if recovery is not None:
            print("recovery_s (crash-image reopen, median of %d): %.6f s"
                  % (sum(len(r["recovery_s"]) for r in doc["reps"]), recovery))
    print_report(doc, values, units)
    for error in errors:
        print("FAIL: " + error)

    correct = failed == 0 and proc.returncode == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

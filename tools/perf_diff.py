#!/usr/bin/env python3
"""Compare two bench_perf.jsonl files and flag events/sec regressions.

Usage:
    perf_diff.py BASELINE.jsonl CURRENT.jsonl [--threshold 0.15]

Both files hold one JSON object per line, as written by the bench
harness (bench/bench_common.h). Records are keyed by (bench, jobs,
smoke, shards, host); the last record per key wins, so append-only
histories compare their most recent runs. The host is the fingerprint
the harness stamps on every record, (nproc, cpu_model): events/sec from
two machines says nothing about a change, so a record is only compared
with a baseline record from the same host. Records written before the
harness stamped hosts count as an unknown host, which matches only other
unknown-host records. Records written before the PDES shards knob
existed carry no "shards" field and default to 1, matching the legacy
serial kernel the new harness reports as shards=1. Records without an
"events_per_sec" field (for example micro_functional's cache_speedup
telemetry) are informational and skipped.

Exit status: 1 if any key common to both files regressed by more than
the threshold, 0 otherwise — including when the files share no keys (a
fresh bench, or a baseline recorded on another host, has nothing to
compare against).
"""

import argparse
import json
import sys

UNKNOWN_HOST = (None, "unknown host")


def host_of(record):
    """(nproc, cpu_model) of the machine that wrote @p record."""
    if "nproc" not in record and "cpu_model" not in record:
        return UNKNOWN_HOST
    return (record.get("nproc"), record.get("cpu_model"))


def host_label(host):
    nproc, model = host
    return model if nproc is None else f"{nproc} x {model}"


def load(path):
    """Last record per (bench, jobs, smoke, shards, host) key; non-perf
    lines are skipped."""
    records = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "events_per_sec" not in record:
                    continue
                key = (
                    record.get("bench", "?"),
                    record.get("jobs", 0),
                    record.get("smoke", False),
                    record.get("shards", 1),
                    host_of(record),
                )
                records[key] = record
    except OSError as error:
        print(f"perf_diff: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    return records


def main():
    parser = argparse.ArgumentParser(
        description="Flag events/sec regressions between bench_perf files")
    parser.add_argument("baseline", help="baseline bench_perf.jsonl")
    parser.add_argument("current", help="current bench_perf.jsonl")
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="fractional slowdown that fails (default 0.15 = 15%%)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    common = sorted(set(baseline) & set(current), key=str)

    # Keys the baseline only holds from another machine: say so, so an
    # empty comparison is never mistaken for a clean one.
    baseline_hosts = {}
    for key in baseline:
        baseline_hosts.setdefault(key[:4], set()).add(key[4])
    for key in sorted(set(current) - set(baseline), key=str):
        others = baseline_hosts.get(key[:4])
        if others:
            bench, jobs, smoke, shards, host = key
            print(f"perf_diff: skipped {bench} (jobs {jobs}, smoke {smoke}, "
                  f"shards {shards}) on {host_label(host)}: baseline is "
                  f"from {', '.join(sorted(map(host_label, others)))}")

    if not common:
        print("perf_diff: no common (bench, jobs, smoke, shards, host) "
              "keys; nothing to compare")
        return 0

    regressions = 0
    print(f"{'bench':28} {'jobs':>4} {'smoke':>5} {'shards':>6} "
          f"{'base ev/s':>12} {'curr ev/s':>12} {'ratio':>7}  host")
    for key in common:
        base = baseline[key]["events_per_sec"]
        curr = current[key]["events_per_sec"]
        ratio = curr / base if base > 0 else float("inf")
        flag = ""
        if base > 0 and ratio < 1.0 - args.threshold:
            flag = "  << REGRESSION"
            regressions += 1
        bench, jobs, smoke, shards, host = key
        print(f"{bench:28} {jobs:>4} {str(smoke):>5} {shards:>6} "
              f"{base:>12.0f} {curr:>12.0f} {ratio:>6.2f}x  "
              f"{host_label(host)}{flag}")

    if regressions:
        print(f"perf_diff: {regressions} key(s) regressed more than "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"perf_diff: {len(common)} key(s) within {args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

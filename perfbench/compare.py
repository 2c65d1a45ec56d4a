#!/usr/bin/env python3
"""Summarize or compare benchmark records written by `run.py --record FILE`.

    python3 perfbench/compare.py BASE.jsonl            # spread per metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

For each (workload, trace) group it prints every metric's median, quartiles
and spread (IQR / median). With two files it also prints NEW's median change
against BASE and, for the end-to-end metrics of BENCHMARK.json, flags a
change worse than the metric's bound as a regression (exit 1).

Records are only diffed when they are comparable: every record of both
files must carry the same host fingerprint (nproc, CPU model, build type,
compiler) and the same benchmark digest (perfbench/ and BENCHMARK.json).
Otherwise the comparison is refused (exit 2); records from different hosts
or benchmark versions are never diffed against each other.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line)["record"])
    if not records:
        sys.exit("compare: %s holds no records" % path)
    return records


def identity(record):
    return json.dumps([record["host"], record["bench_digest"],
                       record["seconds"], record["short"]], sort_keys=True)


def refuse_mixed(records):
    ids = {identity(r) for r in records}
    if len(ids) > 1:
        print("compare: refusing to diff records with different host "
              "fingerprints, benchmark digests or run lengths:",
              file=sys.stderr)
        for i in sorted(ids):
            print("  " + i, file=sys.stderr)
        sys.exit(2)


def groups(records):
    out = {}
    for r in records:
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def metric_values(records):
    values = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    base = load(argv[1])
    new = load(argv[2]) if len(argv) == 3 else []
    refuse_mixed(base + new)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    regressions = []
    base_groups = groups(base)
    new_groups = groups(new)
    for key in sorted(base_groups):
        workload, trace = key
        recs = base_groups[key]
        failed = [r for r in recs if not r["result"]["correct"]]
        print("== %s (trace %d): %d runs, %d incorrect" %
              (workload, trace, len(recs), len(failed)))
        base_vals = metric_values(recs)
        new_vals = metric_values(new_groups.get(key, []))
        for name, vals in base_vals.items():
            med, q1, q3, spread = stats(vals)
            line = "  %-38s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f" \
                   % (name, med, q1, q3, spread)
            spec_m = bounds.get(name)
            if spec_m and not trace:
                line += " (bound %.2f)" % spec_m["bound"]
            if name in new_vals:
                new_med = statistics.median(new_vals[name])
                change = (new_med - med) / abs(med) if med else 0.0
                line += "  new %-12.6g change %+.4f" % (new_med, change)
                if spec_m and not trace:
                    worse = -change if spec_m["better"] == "higher" else change
                    if worse > spec_m["bound"]:
                        line += "  REGRESSION"
                        regressions.append((workload, name, change))
            print(line)
    if regressions:
        print("%d regression(s) beyond their bound" % len(regressions))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

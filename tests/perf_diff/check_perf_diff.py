#!/usr/bin/env python3
"""Check that tools/perf_diff.py compares only records from one host.

    check_perf_diff.py PERF_DIFF_PY FIXTURE_DIR

The fixtures hold one bench recorded on the same host in both files
(compared), one whose baseline comes from another host and one whose
baseline predates host stamping (both skipped, though either would read
as a large regression if compared), and a same-host regression.
"""

import os
import subprocess
import sys


def run(tool, fixtures, baseline, current):
    proc = subprocess.run(
        [sys.executable, tool, os.path.join(fixtures, baseline),
         os.path.join(fixtures, current)],
        capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    tool, fixtures = sys.argv[1], sys.argv[2]
    failures = []

    code, out = run(tool, fixtures, "baseline.jsonl", "current.jsonl")
    if code != 0:
        failures.append(f"cross-host skip exited {code}, want 0")
    compared = [line for line in out.splitlines()
                if line.startswith("fig07_throughput_latency")]
    if len(compared) != 1 or "0.95x" not in compared[0]:
        failures.append("same-host record was not compared at 0.95x")
    for bench in ("ext_scale_cluster", "micro_sim"):
        if f"skipped {bench}" not in out:
            failures.append(f"{bench} (baseline from another host) was "
                            "not reported as skipped")
        if any(line.startswith(bench) for line in out.splitlines()):
            failures.append(f"{bench} was compared across hosts")

    code, regressed = run(tool, fixtures, "baseline.jsonl", "regressed.jsonl")
    if code != 1 or "REGRESSION" not in regressed:
        failures.append(f"same-host regression exited {code}, want 1")

    for failure in failures:
        print("FAIL: " + failure)
    if failures:
        print(out)
        print(regressed)
        return 1
    print("perf_diff host keying: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

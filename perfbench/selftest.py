#!/usr/bin/env python3
"""Self-test of the benchmark itself (about 15 s on 4 cores).

    python3 perfbench/selftest.py

1. Runs every workload through run.py in --short mode (tiny simulated
   windows), untraced and traced, and asserts that the result line has
   exactly the keys correct/attempted/failed/metrics, passes its checks,
   and prints every BENCHMARK.json end-to-end (untraced) or per-layer
   (traced) metric with its unit, and nothing else.
2. Makes one timed pass run with a different seed (--perturb-pass 1) and
   asserts that the determinism check trips: exit 1, correct=false.
3. Runs run.py from a directory holding only BENCHMARK.json and
   perfbench/ and asserts that it fails without printing a result.

Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "smartds_perfbench")
TIMEOUT_S = 170

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = "%s --trace %d" % (workload, trace)
            proc = run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                        "--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), "--short"])
            result = last_json(proc.stdout)
            check(proc.returncode == 0 and result is not None,
                  "%s exits 0 with a result" % tag)
            if result is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  "%s result has exactly the four keys" % tag)
            check(result["correct"] is True and result["attempted"] >= 1,
                  "%s passes its checks" % tag)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(expected[trace]) - set(printed))
            extra = sorted(set(printed) - set(expected[trace]))
            wrong = sorted(k for k in expected[trace]
                           if k in printed and printed[k] != expected[trace][k])
            check(not missing and not extra and not wrong,
                  "%s prints every metric with its unit (missing %s, extra "
                  "%s, wrong unit %s)" % (tag, missing, extra, wrong))

    # The determinism check must catch a pass that simulated other inputs.
    proc = run([BINARY, "--mode", "run", "--workload", "fig07_write",
                "--seed", "7", "--seconds", "0", "--short",
                "--perturb-pass", "1"])
    result = last_json(proc.stdout)
    check(proc.returncode == 1 and result is not None
          and result["correct"] is False
          and result["failed"] == result["attempted"]
          and any("determinism" in e for e in result["errors"]),
          "a pass with other inputs trips the determinism check")

    # Without the simulator sources the command must fail, printing no
    # result.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run([sys.executable, "perfbench/run.py", "--workload",
                "fig07_write", "--seed", "1", "--seconds", "1", "--trace",
                "0"], cwd=bare)
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "without src/ the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

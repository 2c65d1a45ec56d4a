#!/usr/bin/env python3
"""SmartDS benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles
../src) into .bench_build/perfbench on first use, then runs one workload in
processes of its own:

  --trace 0  fifteen `setup` processes (median cold set-up time, setup_s)
             and one `run` process that repeats the workload untraced for
             S seconds: the end-to-end metrics of BENCHMARK.json.
  --trace 1  one `trace` process: traced run plus layer replays, the
             per-layer metrics of BENCHMARK.json.

The second-to-last stdout line is the full record (host fingerprint, commit,
source digests, result); the last line is the result alone:
{"correct", "attempted", "failed", "metrics"}. `--record FILE` also appends
the record to FILE, for perfbench/compare.py. Exits non-zero, printing no
result, when the simulator sources are missing or the build fails; exits 1
with correct=false when a built-in correctness check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "smartds_perfbench")
WORKLOADS = ("fig07_write", "skewed_rw_faults", "ec_cluster")
SETUP_PROCESSES = 15
# Each process gets this long; the whole command must end within 180 s.
PROCESS_TIMEOUT_S = 150


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark binary, logging to a file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-G",
                      "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "smartds_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)


def run_binary(mode, args):
    """Run the benchmark binary once; returns (exit code, result line)."""
    cmd = [BINARY, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die("%s process timed out" % mode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("%s process exited %d without a result" % (mode, proc.returncode))
    return proc.returncode, result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def tree_digest(paths):
    """sha256 over the names and bytes of the files in paths (docs aside)."""
    h = hashlib.sha256()
    for top in paths:
        full = os.path.join(ROOT, top)
        files = [full] if os.path.isfile(full) else [
            os.path.join(d, n) for d, _, names in os.walk(full)
            for n in names
            if "__pycache__" not in d and not n.endswith(".md")]
        for path in sorted(files):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode != 0:
            return None
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fingerprint():
    """Host identity: records are only comparable when these all match."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": cache_value("CMAKE_CXX_COMPILER"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--short", action="store_true",
                        help="self-test sizes (tiny simulated windows)")
    parser.add_argument("--record", help="append the full record here")
    args = parser.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 3600:
        die("--seed must be >= 0 and --seconds in [0, 3600]")

    build()
    started = time.time()
    errors = []
    if args.trace:
        code, result = run_binary("trace", args)
        errors += result.get("errors", [])
    else:
        setups = []
        for _ in range(2 if args.short else SETUP_PROCESSES):
            setup_code, setup = run_binary("setup", args)
            if setup_code != 0:
                die("setup process failed: %s" % setup.get("errors"))
            setups.append(setup["metrics"]["setup_s"]["value"])
        code, result = run_binary("run", args)
        errors += result.get("errors", [])
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics

    final = {k: result[k] for k in ("correct", "attempted", "failed",
                                    "metrics")}
    if code != 0 and final["correct"]:
        die("benchmark binary exited %d but reported no failed check" % code)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "short": args.short,
        "host": fingerprint(), "commit": git_commit(),
        "src_digest": tree_digest(["src"]),
        "bench_digest": tree_digest(["perfbench", "BENCHMARK.json"]),
        "elapsed_s": round(time.time() - started, 3),
        "errors": errors, "result": final,
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"record": record}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

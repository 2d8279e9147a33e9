#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload search|stream|partitioned \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The build goes to .bench_build/perfbench
(an incremental no-op after the first run); the harness self-tests run
before every workload. The last line of stdout is the JSON result; build
output goes to stderr. The exit code is non-zero when the build, a
self-test, a correctness gate or the result check fails.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def build_with_retry():
    # One retry: a compiler killed by a memory spike on a shared host fails
    # the build without any fault in the sources.
    return build() or build()


def self_test():
    binary = os.path.join(BUILD, "perfbench_selftest")
    if not os.path.exists(binary):
        print("perfbench: GTest not found, self-tests not built",
              file=sys.stderr)
        return True
    # The gate tests print the messages a failing run would; show them only
    # when a test fails.
    proc = subprocess.run([binary, "--gtest_brief=1"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, cwd=ROOT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def check_result(line, trace):
    """The result carries every metric BENCHMARK.json names, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        result = json.loads(line)
    except ValueError:
        return False
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            print("perfbench: result lacks %s [%s]" %
                  (metric["name"], metric["unit"]), file=sys.stderr)
            return False
    return set(result) == {"correct", "attempted", "failed", "metrics"}


def main(argv):
    if not build_with_retry() or not self_test():
        return 1
    if argv == ["--self-test"]:
        return 0
    args = dict(zip(argv[::2], argv[1::2]))
    workload = args.get("--workload", "")
    scratch = os.path.join(ROOT, ".bench_build", "scratch",
                           "%s-%d" % (workload or "none", os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench")] + argv + ["--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0 or not check_result(lines[-1],
                                                args.get("--trace") == "1"):
        print(lines[-1], file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Builds and runs the RichWasm repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload admit_mix --seed 1 --seconds 30 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library from src/. It is configured and built under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an up-to-date
build is a no-op. The build log goes to stderr; stdout carries the benchmark's
output, whose last line is the JSON result. With --trace 1 the spans are
written next to the build as perfbench-trace.csv.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests (perfbench/SelfTest.cpp).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("admit_mix", "cold_link", "run_interop")
# Environment knobs of the library that would change what a run measures.
SCRUBBED_ENV = ("RW_OBS", "RW_OBS_TRACE", "RW_OBS_TRACE_SAMPLE",
                "RW_JIT_THRESHOLD")
DEFAULT_SECONDS = 30
# Time a run may take beyond --seconds: five set-ups, warm-ups and the
# host-speed probes.
SETUP_ALLOWANCE_S = 140


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "ingest", "Ingest.h")):
        fail("RichWasm sources not found under " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(3, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    build(out)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    if args.selftest:
        cmd = [os.path.join(out, "perfbench_selftest")]
    else:
        cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(out, "perfbench-trace.csv")]
    timeout = SETUP_ALLOWANCE_S + (0 if args.selftest else args.seconds)
    try:
        proc = subprocess.run(cmd, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %g s" % timeout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

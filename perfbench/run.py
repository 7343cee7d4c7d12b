#!/usr/bin/env python3
"""Builds PG-HIVE from source and runs one benchmark workload.

    python3 perfbench/run.py --workload static-ldbc|incremental-iyp|daemon-stream
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the pghive libraries, pghive, pghived and the
harness) into $CARGO_TARGET_DIR, or .bench_build when that is unset. Scratch
files go to .bench_work/<workload>-<seed>-<trace>/; only the span file
(trace.json) and the harness output (run.log) are kept there.

The harness's stdout is passed through; its last line is the JSON result.
The exit status is non-zero when the build fails or an output check fails.
"""
import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("static-ldbc", "incremental-iyp", "daemon-stream")
HARNESS_TIMEOUT_S = 160


def build(build_dir):
    """Configures (once) and builds the benchmark; build output to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench_harness", "pghive_cli", "pghived"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def clean_work_dir(work_dir):
    """Drops the run's large scratch files; keeps trace.json and run.log."""
    for path in glob.glob(os.path.join(work_dir, "*")):
        if os.path.basename(path) in ("trace.json", "run.log"):
            continue
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.remove(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(root, ".bench_work",
                            f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(build_dir, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir,
               "--bin-dir", os.path.join(build_dir, "pghive", "tools")]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s",
              file=sys.stderr)
        clean_work_dir(work_dir)
        return 1
    with open(os.path.join(work_dir, "run.log"), "w") as log:
        log.write(proc.stdout)
    clean_work_dir(work_dir)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print("perfbench: harness printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

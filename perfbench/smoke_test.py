#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny scales, both modes.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. For each workload, traced and untraced, on
two seeds, it runs perfbench/run.py --smoke and checks that the run passes
its output checks and that the result names exactly the metrics of
BENCHMARK.json (end-to-end ones untraced, per-layer ones traced), each with
its declared unit. Exits non-zero on the first mismatch.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (1, 2):
            for trace in ("0", "1"):
                label = f"{workload} seed {seed} trace {trace}"
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", trace, "--smoke"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                try:
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                except ValueError:
                    failures.append(f"{label}: no JSON result")
                    continue
                problems = []
                if proc.returncode != 0 or not result["correct"]:
                    problems.append("output checks failed")
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(
                        f"metric names/units differ: missing "
                        f"{sorted(set(expected[trace]) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected[trace]))}, units "
                        f"{sorted(k for k in got if expected[trace].get(k, got[k]) != got[k])}")
                if not all(math.isfinite(v["value"])
                           for v in result["metrics"].values()):
                    problems.append("non-finite metric value")
                if trace == "0" and not all(v["value"] > 0 for v in
                                            result["metrics"].values()):
                    problems.append("an end-to-end metric reads 0")
                print(f"{label}: {'ok' if not problems else '; '.join(problems)}")
                failures += [f"{label}: {p}" for p in problems]
    if failures:
        print(f"{len(failures)} smoke failures", file=sys.stderr)
        return 1
    print("all smoke runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

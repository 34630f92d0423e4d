#!/usr/bin/env python3
"""Builds the benchmark and runs one workload, or every workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
builds the repository's crates from source, into $CARGO_TARGET_DIR
(default .bench_build). Build output goes to standard error. For one
workload, standard output is the benchmark's, ending in one JSON line
with the keys correct, attempted, failed and metrics; the exit code is
non-zero when the build fails or an output check fails.

With --workload all, each workload runs in its own process (so its
peak resident set is its own) and a table of every metric follows.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sim-haggle", "match-zipf", "broker-rate"]
# A single run must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary; returns its path, or exits on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, env=env, check=False)
    except OSError as err:
        sys.exit(f"run.py: cannot start cargo: {err}")
    if result.returncode != 0:
        sys.exit(f"run.py: build failed (exit {result.returncode})")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        result = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return result.returncode, result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args)
        sys.stdout.write(out)
        return code

    worst = 0
    rows = []
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args)
        sys.stdout.write(f"== {workload}\n{out}")
        worst = worst or code
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "metrics": {}}
        worst = worst or (0 if result["correct"] else 1)
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "correct", result["correct"], ""))
    print("\nworkload     metric                              value unit")
    for workload, name, value, unit in rows:
        shown = f"{value:16.4f}" if isinstance(value, float) else f"{str(value):>16}"
        print(f"{workload:<12} {name:<30} {shown} {unit}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

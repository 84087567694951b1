#!/usr/bin/env python3
"""Build and run the cloudlb benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The first form builds perfbench/ (a cargo package with its own workspace)
in release mode and runs one workload; the last line of its output is one
JSON object with the keys correct, attempted, failed and metrics. The
second form runs every workload untraced and traced, prints every metric,
and exits non-zero if any run failed its checks.

The build goes to $CARGO_TARGET_DIR when set, else perfbench/target.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-matrix", "wide-event", "scale-ff", "chaos-mix"]
BINARY = "cloudlb-perfbench"


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"error: build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", BINARY)


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, its output lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds * 4 + 120)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in time", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    if binary is None:
        return 2

    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return code

    # Every workload, untraced then traced; one summary object at the end.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_one(binary, workload, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]), flush=True)
            worst = max(worst, code)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                summary["correct"] = False
                continue
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return worst if summary["correct"] else max(worst, 1)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
The line before it stamps the run with a host fingerprint. The exit
code is 0 only when every invariant held.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["pod-wormhole", "serve-diurnal", "mem-hierarchy"]


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return target / "release" / "perfbench"


def command_output(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(args):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Only trust git when the repository root is the work tree's top.
    top = command_output(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    rev = None
    if top and pathlib.Path(top).resolve() == ROOT:
        rev = command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_rev": rev or "unknown",
        "worker_threads": 1,
        "seed": args.seed,
    }


def run_one(binary, workload, args):
    """Runs the binary on one workload; returns (exit code, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds * 3 + 60)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in time")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"perfbench: {workload} printed no result (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {workload:14} {name:34} {m['value']:>18.6g} {m['unit']}")
    return done.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes, results = [], []
    for w in workloads:
        code, result = run_one(binary, w, args)
        codes.append(code)
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({"host": fingerprint(args)}))
    print(json.dumps(final))
    return 0 if final["correct"] and not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())

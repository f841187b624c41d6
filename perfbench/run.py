#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. The line before it is the full report. Exits non-zero,
printing no result, when the build or the run fails or when the result
does not carry exactly the metrics BENCHMARK.json names.

--tiny runs every workload at a toy size and --perturb-reference shifts one
reference value; the benchmark's own test uses both.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    """Configures and builds the benchmark; returns the binary or None."""
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        # The build's chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--perturb-reference", action="store_true")
    args = p.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(build_dir / "work"), "--commit", git_commit()]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line of the benchmark's output is not JSON")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result keys {sorted(result)} are not the expected ones")
        return 1
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, or a unit differs")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

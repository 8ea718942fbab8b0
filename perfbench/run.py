#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune_mlp1 --seed 1 --seconds 20 --trace 0

builds ``perfbench/bench.exe`` with dune, runs the workload in a fresh
process and passes its output through; the last line is the JSON
summary.  ``--workload all`` runs every workload, each in its own
process, and ends with a combined summary.  ``--selftest`` checks that
the deterministic counters repeat exactly across runs and run orders,
that the held-out seed passes, and that BENCHMARK.json names exactly
the metrics the program prints.  README.md describes the workloads and
metrics.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["tune_mlp1", "serve_overload", "exec_data"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SPANS_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found; run from the root of a repository checkout")
    command = ["dune", "build", "--root", ".", "--display", "quiet", "--cache", "disabled",
               "./perfbench/bench.exe"]
    try:
        result = subprocess.run(command, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("the build timed out")
    if result.returncode != 0:
        fail("the build failed")


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_workload(workload, seed, seconds, trace):
    """Run one workload in a fresh process; return (exit code, stdout lines)."""
    command = [EXE, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--nproc", str(usable_cpus())]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans", os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.jsonl")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return result.returncode, result.stdout.splitlines()


def summary(lines):
    return json.loads(lines[-1]) if lines else None


def counters(lines):
    for line in lines:
        if line.startswith("counters "):
            return json.loads(line[len("counters "):])
    return None


def run_all(seed, seconds, trace):
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines = run_workload(workload, seed, seconds, trace)
        print("\n".join(lines[:-1]))
        result = summary(lines)
        if code != 0 or result is None:
            status = code or 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def selftest(seconds):
    """Counters repeat across runs and orders; both seeds pass; names match."""
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    problems = []
    seen = {}
    for order in (WORKLOADS, list(reversed(WORKLOADS))):
        for workload in order:
            code, lines = run_workload(workload, DEFAULT_SEED, seconds, 1)
            if code != 0:
                problems.append(f"{workload}: exit {code} on the default seed")
                continue
            got = counters(lines)
            if workload in seen and seen[workload] != got:
                problems.append(f"{workload}: counters differ between runs: "
                                f"{seen[workload]} vs {got}")
            seen.setdefault(workload, got)
            declared = {m["name"] for m in benchmark["per_layer"]}
            if set(summary(lines)["metrics"]) != declared:
                problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
    for workload in WORKLOADS:
        code, lines = run_workload(workload, HELD_OUT_SEED, seconds, 0)
        result = summary(lines)
        if code != 0 or not result or not result["correct"]:
            problems.append(f"{workload}: held-out seed {HELD_OUT_SEED} failed")
            continue
        declared = {m["name"] for m in benchmark["end_to_end"]}
        if set(result["metrics"]) != declared:
            problems.append(f"{workload}: metrics differ from BENCHMARK.json end_to_end")
    if {w["name"] for w in benchmark["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the program's")
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    build()
    if args.selftest:
        return selftest(args.seconds)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

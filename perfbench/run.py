#!/usr/bin/env python3
"""Build and run the P4runpro benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick

The first form configures and builds perfbench/CMakeLists.txt (the p4runpro
library from src/ plus perfbench.cpp) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The binary's stdout
is passed through; its last line is the JSON result. Build output goes to
stderr.

--quick is the benchmark's own test: it runs every workload briefly, traced
and untraced, and checks that each run is correct and reports exactly the
metrics BENCHMARK.json names, with their units. It also runs packet_mix twice
on one seed and checks that the fate tallies repeat exactly.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure and build the binary; returns its path or exits non-zero."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def run_bench(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: perfbench timed out", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def quick(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_bench(binary, workload, 1, 1, trace)
            result = parse_result(lines)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing} extra {extra} "
                                f"wrong units {wrong}")
            print(f"quick: {where}: ok={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    digests = []
    for _ in range(2):
        _, lines = run_bench(binary, "packet_mix", 7, 1, 0)
        digests.append([l for l in lines if l.startswith("tally_digest")])
    if not digests[0] or digests[0] != digests[1]:
        problems.append(f"packet_mix tallies do not repeat for one seed: {digests}")
    for p in problems:
        print("quick: FAIL " + p)
    print("quick: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not args.quick and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.quick:
        return quick(binary)
    code, lines = run_bench(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    result = parse_result(lines)
    if result is None:
        print("run.py: perfbench printed no result", file=sys.stderr)
        return code or 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

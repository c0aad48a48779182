#!/usr/bin/env python3
"""End-to-end benchmark of the rtdls reproduction.

Builds the C++ harness from the checkout's sources (perfbench/CMakeLists.txt,
into .bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload figure_suite|replay_large|daemon_admit \\
        --seed N --seconds S --trace 0|1

Run it from anywhere; it works in the checkout that contains it. The last
line of standard output is the JSON result: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. The exit
status is 0 when every correctness check passed, 1 when one failed (the
result line is still printed), and another non-zero code, without a result
line, when the harness cannot be built or run.

Test-only options: --size smoke shrinks every input; --inject-failure makes
one operation fail with a typed error, which must be counted as failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TMP = ROOT / ".bench_build" / "tmp"
WORKLOADS = ("figure_suite", "replay_large", "daemon_admit")
# A run measures for --seconds plus at most one more repetition of its unit
# of work; anything far beyond that is a hang.
HARNESS_TIMEOUT_S = 170

EXIT_BUILD_FAILED = 3
EXIT_BAD_RESULT = 4


def local_env():
    """The environment for child processes: temporary files stay inside the
    checkout, and RTDLS_* variables (index backend, logging, scale) are
    dropped so the seed argument alone determines the inputs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTDLS_")}
    env["TMPDIR"] = str(TMP)
    return env


def build():
    """Configures (once) and builds the harness; returns the build dir."""
    BUILD.mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, env=local_env())
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                       stdout=sys.stderr, env=local_env())
    return BUILD


def expected_metrics(trace):
    """Names and units of the metrics a run must report, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the problems of a result line against the output contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        return [f"last line is not JSON: {error}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing was attempted")
    reported = {name: m.get("unit") for name, m in result["metrics"].items()}
    expected = expected_metrics(trace)
    if reported != expected:
        problems.append(f"metrics {reported} differ from BENCHMARK.json {expected}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args()

    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return EXIT_BUILD_FAILED

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
    if args.inject_failure:
        command.append("--inject-failure")
    try:
        proc = subprocess.run(command, cwd=ROOT, env=local_env(), stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {HARNESS_TIMEOUT_S} s",
              file=sys.stderr)
        return EXIT_BAD_RESULT

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: harness exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or EXIT_BAD_RESULT
    problems = check_result(lines[-1], args.trace == 1)
    if problems:
        for line in lines[:-1]:
            print(line)
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return EXIT_BAD_RESULT
    for line in lines:
        print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark entry point: build the runner from source, run one workload.

    python3 perfbench/run.py --workload fleet_2k --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the runner plus splitwise_server) into .bench_build/; later
calls only re-run the incremental build. The runner's output is passed
through, and its result is re-printed as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result line, when the build or the run fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fleet_2k", "chat_prefix_100", "design_sweep", "live_http")
# The runner itself stops measuring after --seconds; this bounds a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench_runner"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(BUILD, "server", "splitwise_server"),
        "--work-dir", work_dir,
    ]
    # Own process group, so a hung run is stopped with its server.
    runner = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        stdout, _ = runner.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.communicate()
        print("perfbench: runner timed out", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").splitlines()
    if runner.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        print("perfbench: runner exited with %d" % runner.returncode,
              file=sys.stderr)
        return 1

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload train_host --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_host --smoke

The library and the driver compile in Release mode into .bench_build/perfbench
(a no-op when up to date). The last line of standard output is the JSON
result; perfbench/README.md describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("train_host", "sim_resnet50", "serve_host")
# Independent set-ups per run. Each HostCpu round plans afresh from timing
# noise, so more rounds see more plans and their summary moves less.
ROUNDS = {"train_host": 8, "sim_resnet50": 5, "serve_host": 12}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_step(cmd, env):
    """Runs one build command with its output on stderr, so that standard
    output ends with the result line."""
    cmd = [str(c) for c in cmd]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found in {ROOT / 'src'}")
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))  # compiler scratch stays here
    if not (BUILD / "CMakeCache.txt").is_file():
        build_step(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(min(4, os.cpu_count() or 1))
    build_step(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], env)
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of one second: checks that the "
                             "command works, measures nothing useful")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    binary = build()
    rounds, seconds = ((1, 1.0) if args.smoke
                       else (ROUNDS[args.workload], args.seconds))
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    # Library defaults only, and a fixed kernel pool: 2 threads leave room
    # for the load generator and the two serve workers on 4 cores.
    env = {k: v for k, v in os.environ.items() if not k.startswith("UCUDNN_")}
    env["UCUDNN_NUM_THREADS"] = "2"
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", seconds, "--trace", args.trace, "--rounds", rounds,
           "--trace-out", traces / f"{args.workload}-seed{args.seed}.json"]
    try:
        done = subprocess.run([str(c) for c in cmd], env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run took longer than {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Multi-version serving benchmark: builds the harness and runs one workload.

Run from the root of the repository:

    python3 mvbench/run.py --workload <tasky_oltp|wiki_chain> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 mvbench/run.py --selftest --workload <name>

The harness is built from source (mvbench/CMakeLists.txt compiles the
engine library from src/) into .bench_build/mvbench; the first run builds,
later runs only check that the build is current. The workload runs at the
engine's default settings: INVERDA_SHARDS, INVERDA_SCAN_THREADS and
INVERDA_BENCH_QUICK are removed from its environment. The last line of
standard output is the result as one JSON object; build output goes to
standard error. The traced run writes its span log to .bench_out/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mvbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("tasky_oltp", "wiki_chain")
ENGINE_ENV = ("INVERDA_SHARDS", "INVERDA_SCAN_THREADS", "INVERDA_BENCH_QUICK")


def build():
    """Configures and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("mvbench: engine sources (src/) not found next to mvbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("mvbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "mvbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="corrupt one stored row and show the checks "
                             "report it")
    args = parser.parse_args()

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    if args.selftest:
        cmd.append("--selftest")
    sys.stdout.flush()
    result = subprocess.run(cmd, env=env, cwd=ROOT, timeout=170)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

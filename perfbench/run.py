#!/usr/bin/env python3
"""EvoBench entry point: builds the benchmark from source, then runs one workload.

usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lives in .bench_build/perfbench (configured once, rebuilt
incrementally). Build output goes to stderr; standard output ends with the
benchmark's JSON result line. Temporary LSM directories are removed when
the run ends. Exits non-zero when the build fails or any check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "evobench")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("evobench: engine sources (src/) not found\n")
        sys.exit(1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "evobench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            sys.stderr.write("evobench: cannot run %s: %s\n" % (cmd[0], err))
            sys.exit(1)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("evobench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", WORK]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code = done.returncode
        sys.stdout.write(done.stdout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("evobench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(os.path.join(WORK, "tmp"), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

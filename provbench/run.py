#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 provbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the repository root. The first run configures and builds the
provledger library and the provbench executable (Release) under .bench_build/;
later runs only re-check the build. Build output goes to stderr, so the last
line of standard output is the JSON result. The exit code is the
executable's: 0 only when every output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "provbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("iot_ingest", "query_under_ingest", "replicated_commit")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("provbench: no provledger sources next to %s\n" % HERE)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "provbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("provbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: the whole run takes seconds")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 2
    command = [os.path.join(BUILD, "provbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", WORK]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the host benchmark from source, then run it.

Run from the root of a checkout:

    python3 hostbench/run.py --workload matmul --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --self-test

Every argument goes to the hostbench binary (see hostbench.cc). The
binary is built in .bench_build/hostbench with CMake from this
directory's CMakeLists.txt, which compiles the scheduler libraries from
../src. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "threads", "scheduler.hh")):
        sys.exit("hostbench: no scheduler sources under src/; run from the "
                 "root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("hostbench: build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    done = subprocess.run([os.path.join(BUILD, "hostbench")] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

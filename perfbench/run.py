#!/usr/bin/env python3
"""Build and run the ImmerSim end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (optimized, against the
library sources in src/) into .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. --self-test builds and runs the
tests of the benchmark's own checks instead.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message, code=3):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configure (once) and build @p target; exit non-zero on failure."""
    for needed in ("src/autoscale/experiment.hh", "src/obs/version.hh.in"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no ImmerSim sources here (missing %s); run from the "
                 "repository root" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                fail("configure failed")
        if subprocess.call(["cmake", "--build", BUILD, "--target", target,
                            "--parallel", jobs], stdout=sys.stderr) != 0:
            fail("build of %s failed" % target)
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.call([build("perfbench_tests")])
    binary = build("perfbench")
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build the Buffy benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload cold|warm|sweep --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. The driver (perfbench/driver.cpp) is
configured and built with CMake, in Release mode, under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; once built, a run only checks that the build is up to date.
Build output goes to stderr, so the last line of stdout is the driver's
JSON result. The driver runs in the repository root; a traced run writes
its spans to .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold", "warm", "sweep")


def run_to_stderr(cmd):
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited with {done.returncode}")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no Buffy sources (src/CMakeLists.txt) in {ROOT}")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, base, "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_to_stderr(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_to_stderr(["cmake", "--build", out, "--target", "perfbench_driver",
                   "-j", jobs])
    return os.path.join(out, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    driver = build()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

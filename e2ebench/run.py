#!/usr/bin/env python3
"""Builds the e2ebench driver from source and runs one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload plan_converge --seed 1 --seconds 20 --trace 0

The library and the driver are built in Release under .bench_build/e2ebench
(a no-op when up to date; build output goes to stderr). The driver's stdout
is passed through unchanged: every metric by name and unit, then one JSON
line {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
driver's spans and the library's obs spans are written to
.bench_build/e2ebench/trace-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
WORKLOADS = ("plan_converge", "plan_scale", "serve_drift")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: driver timed out", file=sys.stderr)
        return 1
    if result.returncode != 0:
        print(f"e2ebench: driver exited with {result.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the GATES benchmark.

    python3 gatesbench/run.py --workload chain4 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds the
middleware from the repository's sources, together with the benchmark, into
.bench_build/ (or $CARGO_TARGET_DIR); later calls only re-check the build.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Traced runs write their spans under .bench_out/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds every benchmark target; True on success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", *generator, "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    done = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "gatesbench")
    if not build(build_dir):
        print("gatesbench: build failed", file=sys.stderr)
        return 1
    # The benchmark's statistics are checked before any figure is reported.
    stats_test = subprocess.run([os.path.join(build_dir, "gatesbench_stats_test")],
                                stdout=subprocess.DEVNULL, stderr=sys.stderr)
    if stats_test.returncode != 0:
        print("gatesbench: statistics self-test failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "gatesbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(root, ".bench_out")]
    with subprocess.Popen(command) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("gatesbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources, then run it.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR when
set, else .bench_build; build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  Exits non-zero,
printing no result, when the program cannot be built.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds perfbench; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main(argv):
    binary = build()
    root = os.path.dirname(HERE)
    sys.stdout.flush()
    done = subprocess.run([binary, "--root", root] + argv)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

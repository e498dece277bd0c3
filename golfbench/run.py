#!/usr/bin/env python3
"""Build golfbench from source and run one workload.

    python3 golfbench/run.py --workload corpus|heap|service --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
golfcc library and the benchmark binary under .bench_build/golfbench
(later calls rebuild incrementally); build output goes to stderr. The
binary's output is passed through, so the last line of stdout is the
result JSON. Exits non-zero without a result when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "golfbench")


def build_jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return str(max(1, min(4, n)))


def build():
    """Configure (once) and build; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    r = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "golfbench", "-j",
         build_jobs()],
        stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "heap", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        print("golfbench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(BUILD, "golfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

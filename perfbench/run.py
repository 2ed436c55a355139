#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json and perfbench/METRICS.md).

    python3 perfbench/run.py --workload exec-spec|heap-debug|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/rfbench (a CMake package that
compiles the redfat_* libraries from src/) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs the workload in a fresh rfbench process.
The last line of stdout is the result JSON; build logs and the human-readable
report go to stderr. Exits non-zero, without a result, when the sources or
the build are missing or the run fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no redfat sources (src/CMakeLists.txt) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rfbench", "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "rfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["exec-spec", "heap-debug", "serve-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    # Self-test hook: corrupt the expected outputs so every check fails.
    parser.add_argument("--corrupt-expected", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    # Relative to the root: the serve-mix socket path must fit sockaddr_un.
    work_dir = os.path.relpath(build_dir, ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"rfbench exited with status {proc.returncode}")
    print(lines[-1])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build bench_e2e from source and run one of its workloads.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds the CMake package in this directory under
.bench_build/e2e (build output goes to stderr), then runs bench_e2e there
for the one workload; with --trace 1 it also writes the Chrome trace and
the layer table next to the binary. The binary's last stdout line is the
result object. When the build fails, for instance because the library
sources are missing, this exits nonzero without printing a result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def build() -> bool:
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "bench_e2e",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(BUILD / f"trace.{args.workload}.json")]
    proc = subprocess.Popen(cmd, cwd=BUILD)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

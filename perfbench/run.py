#!/usr/bin/env python3
"""Build espnuca-bench (incrementally) and run it on one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload apache-esp --seed 1 --seconds 30 \
        --trace 0

Every argument goes to espnuca-bench (see perfbench/README.md). The
build lives in .bench_build/perfbench and its output goes to stderr, so
the last stdout line is the benchmark's JSON result. Exits non-zero,
printing no result, when the simulator sources are missing or the build
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "espnuca-bench"


def build():
    if not (ROOT / "src" / "harness" / "system.hpp").is_file():
        print("perfbench: simulator sources not found under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return BINARY.is_file()


def main():
    if not build():
        return 2
    code = subprocess.run([str(BINARY), *sys.argv[1:]]).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

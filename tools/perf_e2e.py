#!/usr/bin/env python3
"""Run perfbench on each named workload and print the "e2e" section.

    python3 tools/perf_e2e.py apache-esp mcf4-esp > measured.json

Each workload gets three `python3 perfbench/run.py --workload W --seed S
--seconds 10 --trace 0` runs, seeds 1-3; each run's `refs_per_s` and
`setup_s` come from the JSON object on its last stdout line, and the
workload reports the median of each (a single 10 s run spreads about as
widely as the 15 % guard bound). The output document is
`{"e2e": {W: {"refs_per_s": N, "setup_s": S}, ...}}`, the shape of
BENCH_core.json's "e2e" section, so `espnuca-report --check` can diff it
against the committed baseline. `setup_s` (System set-up, sub-millisecond)
is recorded, not guarded: callers scope their check to
`e2e.<W>.refs_per_s`. Exits 1, printing no document, when a run exits
non-zero, prints no result, or reports `failed > 0`.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SEEDS = (1, 2, 3)


def run(workload, seed):
    """The metrics of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "10", "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_e2e: {workload}: perfbench exited "
                 f"{proc.returncode} with no result")
    result = json.loads(lines[-1])
    if result["failed"] > 0:
        sys.exit(f"perf_e2e: {workload}: {result['failed']} of "
                 f"{result['attempted']} runs failed")
    return result["metrics"]


def median(runs, name):
    return statistics.median(m[name]["value"] for m in runs)


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: perf_e2e.py WORKLOAD...")
    e2e = {}
    for w in sys.argv[1:]:
        runs = [run(w, s) for s in SEEDS]
        e2e[w] = {"refs_per_s": round(median(runs, "refs_per_s")),
                  "setup_s": float(f"{median(runs, 'setup_s'):.3g}")}
    print(json.dumps({"e2e": e2e}, indent=2))


if __name__ == "__main__":
    main()

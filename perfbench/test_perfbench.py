#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs at a tiny size. The tests check that every metric
BENCHMARK.json names prints with its unit, that the exact counts repeat
between two runs, that the ESP-only counters read zero on CG-shared, and
that the benchmark refuses to run without the simulator sources.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Host-time metrics; every other per-layer metric is a simulated count
# and must repeat exactly for the same seed.
TIMED = re.compile(r"(_ns$|_ns_per|_ms$|_pct$)")
TINY = ["--seed", "7", "--seconds", "0", "--ops", "3000"]


def bench(workload, trace, cwd=ROOT, script=RUN):
    out = subprocess.run(
        [sys.executable, str(script), "--workload", workload, *TINY,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def table(stdout):
    """name -> (value, unit) from the human-readable metric lines."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def result(cls, workload, trace, attempt=0):
        key = (workload, trace, attempt)
        if key not in cls.runs:
            out = bench(workload, trace)
            assert out.returncode == 0, out.stderr[-2000:]
            cls.runs[key] = (out.stdout,
                             json.loads(out.stdout.splitlines()[-1]))
        return cls.runs[key]

    def test_result_line_holds_exactly_the_declared_metrics(self):
        for w in WORKLOADS:
            for trace, declared in ((0, E2E), (1, LAYERS)):
                _, res = self.result(w, trace)
                self.assertEqual(
                    set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], (w, trace))
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, declared, (w, trace))

    def test_traced_run_prints_every_metric_with_its_unit(self):
        for w in WORKLOADS:
            stdout, _ = self.result(w, 1)
            rows = table(stdout)
            for name, unit in {**E2E, **LAYERS}.items():
                self.assertIn(name, rows, (w, name))
                self.assertEqual(rows[name][1], unit, (w, name))
            self.assertRegex(stdout, r"runs: \d+ attempted, 0 failed")

    def test_exact_counts_repeat(self):
        for w in WORKLOADS:
            _, first = self.result(w, 1)
            _, second = self.result(w, 1, attempt=1)
            for name in LAYERS:
                if TIMED.search(name):
                    continue
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 (w, name))

    def test_esp_counters_are_zero_only_without_esp(self):
        _, cg = self.result("CG-shared", 1)
        _, apache = self.result("apache-esp", 1)
        for name in ("arch.helping_ops_per_ref",
                     "arch.monitor_updates_per_ref"):
            self.assertEqual(cg["metrics"][name]["value"], 0, name)
            self.assertGreater(apache["metrics"][name]["value"], 0, name)

    def test_spans_file_nests_every_layer(self):
        path = ROOT / ".bench_build" / "test-spans.csv"
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", "apache-esp", *TINY,
             "--trace", "1", "--spans", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = path.read_text().splitlines()
        path.unlink()
        self.assertEqual(lines[0], "index,layer,start_ns,end_ns,parent,core,ref")
        spans = [row.split(",") for row in lines[1:]]
        layers = {s[1] for s in spans}
        self.assertEqual(layers, {"step", "next", "access", "done",
                                  "search", "fill", "l1evict"})
        for i, (idx, _, start, end, parent, _, _) in enumerate(spans):
            self.assertEqual(int(idx), i)
            if parent != "-1":
                p = spans[int(parent)]
                self.assertLess(int(parent), i)
                self.assertLessEqual(int(p[2]), int(start))
                self.assertGreaterEqual(int(p[3]), int(end))

    def test_refuses_to_run_without_the_simulator(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        shutil.copytree(HERE / "src", bare / "perfbench" / "src")
        out = bench(WORKLOADS[0], 0, cwd=bare,
                    script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/tests/test_smoke.py      # from the repository root

Each run must end with the result object, print every metric that
BENCHMARK.json names for its mode with the declared unit, and report an
error rate of 0.  Takes well under a minute after the first build.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench_run  # noqa: E402  (perfbench/run.py: where traces go)


def run_smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    return out.stdout.rstrip("\n").split("\n")


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        lines = run_smoke(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        error_rate = [l for l in lines if l.startswith("# error_rate ")]
        self.assertEqual(len(error_rate), 1)
        self.assertEqual(float(error_rate[0].split()[2]), 0.0)

        declared = SPEC["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # The same metric, by name and unit, on a human-readable line.
            pattern = (rf"^# {re.escape(m['name'])}\s+\S+\s+"
                       rf"{re.escape(m['unit'])}\b")
            self.assertTrue(any(re.match(pattern, l) for l in lines),
                            m["name"])
        if trace:
            spans = bench_run.build_dir() / f"trace-{workload}-seed7.json"
            events = json.loads(spans.read_text())["traceEvents"]
            self.assertTrue(events)
            self.assertTrue(all(e["ph"] == "X" for e in events))

    def test_batch(self):
        self.check("batch", 0)
        self.check("batch", 1)

    def test_stream(self):
        self.check("stream", 0)
        self.check("stream", 1)

    def test_serve(self):
        self.check("serve", 0)
        self.check("serve", 1)

    def test_names_are_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         {"batch", "stream", "serve"})


if __name__ == "__main__":
    unittest.main()

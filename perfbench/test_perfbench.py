#!/usr/bin/env python3
"""Self-test of the benchmark, at reduced size.

    python3 perfbench/test_perfbench.py

Runs every workload twice with one seed on a 150k-draw graph and one
second's worth of submits, and asserts that the accuracy and accounting
metrics and every count repeat exactly. Then runs every workload, traced
and untraced, at a held-out seed that was never used while tuning the
benchmark, and asserts that all correctness gates and the replay
reconciliation pass.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = ["hot_reuse", "release_sweep", "durable_multir"]
REPEAT_SEED = 3
HELD_OUT_SEED = 2027
SMALL = ["--seconds", "1", "--draws", "150000",
         "--out-dir", ".bench_out/selftest"]
DETERMINISTIC = ["mae", "answered_share", "eps_per_answer"]


def run_bench(binary, workload, seed, trace):
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *SMALL],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    counts = next((json.loads(line)["counts"] for line in lines
                   if line.startswith('{"counts"')), None)
    return out, result, counts


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_same_seed_repeats_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run_bench(self.binary, workload, REPEAT_SEED, 0)
                        for _ in range(2)]
                for out, result, _ in runs:
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    self.assertTrue(result["correct"])
                (_, first, first_counts), (_, second, second_counts) = runs
                self.assertEqual(first_counts, second_counts)
                self.assertEqual(first["attempted"], second["attempted"])
                self.assertEqual(first["failed"], second["failed"])
                for name in DETERMINISTIC:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_held_out_seed_passes_gates(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out, result, _ = run_bench(self.binary, workload,
                                               HELD_OUT_SEED, trace)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    if trace:
                        metrics = result["metrics"]
                        self.assertEqual(
                            metrics["ldp.rr.calls"]["value"],
                            metrics["service.view_store.releases"]["value"])
                        self.assertGreater(
                            metrics["service.submit.wall_s"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()

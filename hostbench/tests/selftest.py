#!/usr/bin/env python3
"""Self-tests of the host benchmark, on smoke-sized runs of each workload.

    python3 hostbench/tests/selftest.py      # from the repository root

For every workload it checks that
  * an untraced run emits exactly the end-to-end metrics BENCHMARK.json
    names, and a traced run exactly the per-layer metrics;
  * a corrupted expected value is detected: the run fails and says so;
  * two runs with the same seed report identical deterministic counters.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# translate is not in BENCHMARK.json (README.md says why) but is tested too.
WORKLOADS = ["corpus", "translate", "launch_storm"]
SMOKE = ["--ops", "24", "--smoke"]


def run(workload, seed, trace, *extra):
    """Runs the benchmark; returns (exit code, stdout lines, final JSON)."""
    argv = [sys.executable, str(ROOT / "hostbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--", *SMOKE, *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, lines, final


def counters(lines):
    return [l for l in lines if l.startswith("COUNTERS ")]


class SelfTest(unittest.TestCase):
    def test_every_named_metric_is_emitted(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    code, _, final = run(w, 7, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(final), {"correct", "attempted", "failed",
                                     "metrics"})
                    self.assertTrue(final["correct"])
                    self.assertEqual(final["failed"], 0)
                    self.assertGreaterEqual(final["attempted"], 1)
                    got = {k: v["unit"] for k, v in final["metrics"].items()}
                    self.assertEqual(got, want)

    def test_corrupted_expected_value_is_detected(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, _, final = run(w, 7, 0, "--corrupt-expected")
                self.assertNotEqual(code, 0)
                self.assertFalse(final["correct"])
                self.assertEqual(final["failed"], final["attempted"])

    def test_same_seed_same_counters(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code_a, a, _ = run(w, 5, 0)
                code_b, b, _ = run(w, 5, 0)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertEqual(len(counters(a)), 1)
                self.assertEqual(counters(a), counters(b))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute).

    python3 perfbench/test_perfbench.py      # from the repository root

Short runs of every workload must pass the gate and print every metric of
BENCHMARK.json with its unit, in both modes. A corrupting AEAD decorator
and a dropping SendFn must each make the gate fail instead of producing a
result that reads as correct.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The headline metrics each workload prints by name (never 0 in a passing
# run), besides setup_s, peak_rss_mb and fail_ratio.
HEADLINE = {
    "relay_tcp": ["deliveries_per_s", "goodput_mb_s", "deliver_p50_us",
                  "deliver_p99_us", "leader_cpu_us_per_msg"],
    "churn_tree": ["join_p50_us", "join_p99_us", "rekey_p50_us",
                   "rekey_p99_us", "churn_ops_per_s"],
    "rekey_flat_obs": ["deliveries_per_s", "deliver_p50_us", "deliver_p99_us",
                       "rekey_p50_us", "rekey_p99_us"],
}


def report(lines):
    """The readable report's metric lines: name -> (value, unit)."""
    out = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            out[fields[0]] = (float(fields[1]), fields[2])
    return out


def run(workload, trace=0, fault=None, seconds="1"):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", seconds,
           "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


class ShortRuns(unittest.TestCase):
    def check_mode(self, trace, wanted):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, lines, result = run(workload, trace)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for m in wanted:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))
                    # The readable report names the metric with its unit too.
                    self.assertTrue(any(line.split()[:1] == [m["name"]] and
                                        line.split()[-1] == m["unit"]
                                        for line in lines[:-1]), m["name"])
                if not trace:
                    for m in wanted:
                        self.assertGreater(result["metrics"][m["name"]]["value"],
                                           0, m["name"])
                    named = report(lines)
                    for name in HEADLINE[workload] + ["setup_s", "peak_rss_mb"]:
                        self.assertIn(name, named)
                        self.assertGreater(named[name][0], 0, name)
                    self.assertEqual(named["fail_ratio"][0], 0)

    def test_end_to_end_metrics(self):
        self.check_mode(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_mode(1, SPEC["per_layer"])


class GateCatchesFaults(unittest.TestCase):
    def check_fault(self, fault):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, fault=fault):
                code, lines, result = run(workload, fault=fault, seconds="2")
                self.assertNotEqual(code, 0)
                self.assertIsNotNone(result, "no result line")
                self.assertFalse(result["correct"], "\n".join(lines))
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any("gate violation" in line for line in lines))

    def test_corrupting_aead(self):
        self.check_fault("corrupt_aead")

    def test_dropping_sendfn(self):
        self.check_fault("drop_send")


if __name__ == "__main__":
    unittest.main()

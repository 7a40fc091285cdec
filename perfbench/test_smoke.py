#!/usr/bin/env python3
"""Smoke test of the benchmark runner: tiny inputs, every workload and mode.

    python3 perfbench/test_smoke.py

For each workload, in smoke mode (s27/s298, a handful of requests):
  * --trace 0 emits exactly BENCHMARK.json's end-to-end metrics, each with
    its unit, and prints the ROADMAP-named figures (flow_wall_s,
    serve_p99_ms, ...) with units;
  * --trace 1 emits exactly the per-layer metrics, each with its unit;
  * --inject-bad (an unknown circuit, or an unparsable netlist) comes back
    as a failed operation and correct = false.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The end-to-end figures each workload prints by the names ROADMAP.md uses.
NAMED = {
    "cold_flow": ["flow_wall_s", "flow_cpu_s", "coverage_pct", "aborted_pct", "setup_s",
                  "rss_peak_mb"],
    "paper_tables": ["tables_wall_s", "tables_cpu_s", "setup_s", "rss_peak_mb"],
    "serve_mix": ["serve_rps", "serve_p50_ms", "serve_p99_ms", "serve_cpu_s", "setup_s",
                  "rss_peak_mb"],
}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=900)
    if r.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd), r.returncode))
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual([m["name"] for m in listed], list(result["metrics"]))
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end(self):
        for w in NAMED:
            with self.subTest(workload=w):
                notes, result = run(w, 0)
                self.assertTrue(result["correct"], notes)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, self.spec["end_to_end"])
                for name in NAMED[w]:
                    pattern = r"^metric %s = -?[0-9.e+-]+ \S+" % re.escape(name)
                    self.assertTrue(any(re.match(pattern, n) for n in notes),
                                    "%s: no '%s' line with a unit" % (w, name))

    def test_per_layer(self):
        for w in NAMED:
            with self.subTest(workload=w):
                notes, result = run(w, 1)
                self.assertTrue(result["correct"], notes)
                self.check_metrics(result, self.spec["per_layer"])

    def test_bad_request_counts_as_failed(self):
        for w in NAMED:
            with self.subTest(workload=w):
                _, result = run(w, 0, "--inject-bad")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(result["attempted"], result["failed"])
                self.check_metrics(result, self.spec["end_to_end"])


if __name__ == "__main__":
    unittest.main()

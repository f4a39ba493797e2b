#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_bench.py

- every workload, untraced and traced, at the tiny input size prints every
  metric BENCHMARK.json names, with its unit, both as a text line and in
  the final JSON object, and reports no failures;
- the serve correctness gate counts a deliberately flipped output bit as
  one wrong result (bench.exe --self-test);
- in a directory holding only BENCHMARK.json and the benchmark's files the
  command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH = json.load(open("BENCHMARK.json"))


def run(args, cwd="."):
    return subprocess.run(
        ["python3", "perfbench/run.py"] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        r = run(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny"])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            prefix = f"metric {m['name']} = "
            text = [l for l in lines if l.startswith(prefix)]
            self.assertTrue(text, f"no text line for {m['name']}")
            self.assertTrue(text[-1].endswith(" " + m["unit"]), text[-1])

    def test_workloads(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)


class Gate(unittest.TestCase):
    def test_flipped_bit_is_wrong(self):
        r = run(["--self-test"])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("0 wrong before the flip, 1 after", r.stdout)

    def test_bare_directory_fails(self):
        bare = os.path.join("_perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy("BENCHMARK.json", bare)
            for p in BENCH["paths"]:
                shutil.copytree(p, os.path.join(bare, p))
            r = run(["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(argv=sys.argv, verbosity=2)

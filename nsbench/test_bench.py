#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size.

    python3 nsbench/test_bench.py          # from the repository root

Checks that each workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that the outcome digest repeats across two
invocations; and that a wrong expected digest makes the output check
fail, so the check is shown to be able to fail.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--jobs", "40", "--seconds", "0.1"]


def bench(workload, trace, *extra):
    """Runs one tiny invocation; returns (result, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def digest_of(stderr):
    return re.search(r"digest ([0-9a-f]{16})", stderr).group(1)


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload(self):
        for w in self.spec["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                plain, err = bench(name, 0)
                self.check_metrics(plain, self.spec["end_to_end"])
                layered, _ = bench(name, 1)
                self.check_metrics(layered, self.spec["per_layer"])
                # A second process must reproduce the first one's outcome.
                again, _ = bench(name, 0, "--expect-digest", digest_of(err))
                self.assertTrue(again["correct"], again)

    def test_wrong_digest_fails_the_check(self):
        _, err = bench("trace-pipeline", 0)
        digest = digest_of(err)
        tampered = f"{int(digest, 16) ^ 1:016x}"
        result, _ = bench("trace-pipeline", 0, "--expect-digest", tampered)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()

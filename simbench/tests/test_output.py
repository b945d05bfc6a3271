#!/usr/bin/env python3
"""Checks that simbench's output parses back against BENCHMARK.json.

Usage: test_output.py <simbench binary> <BENCHMARK.json>

Runs every workload the binary lists on the small --smoke device,
untraced and traced, and checks that the last line is the result object
with exactly the metrics BENCHMARK.json names (with their units), that
the run is correct with no failed request, and that the traced and
untraced runs of a seed report the same simulated-statistics digests.
"""

import json
import math
import re
import subprocess
import sys
import unittest

BINARY = None
SPEC = None
DIGEST = re.compile(r" (\S+/seed\d+/\S+)=([0-9a-f]{16})")


def run(*args):
    done = subprocess.run([BINARY] + list(args), stdout=subprocess.PIPE,
                          text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def listed_workloads():
    return subprocess.run([BINARY, "--list"], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.split()


def digests(lines):
    return [DIGEST.findall(l) for l in lines
            if l.startswith(("warm-up ", "repeat "))]


class OutputTest(unittest.TestCase):
    def test_workloads_match_the_spec(self):
        listed = listed_workloads()
        spec = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(listed[:len(spec)], spec)

    def check_result(self, result, metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_workload_parses_with_every_metric(self):
        for name in listed_workloads():
            with self.subTest(workload=name):
                common = ["--workload", name, "--smoke", "--seed", "5",
                          "--seconds", "0"]
                plain_lines, plain = run(*common, "--trace", "0")
                traced_lines, traced = run(*common, "--trace", "1")
                self.check_result(plain, SPEC["end_to_end"])
                self.check_result(traced, SPEC["per_layer"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                ref = digests(plain_lines)[0]
                self.assertTrue(ref)
                for d in digests(plain_lines) + digests(traced_lines):
                    self.assertEqual(d, ref)

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope"], ["--trace", "2"], []):
            done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            self.assertNotEqual(done.returncode, 0, args)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    BINARY = sys.argv[1]
    with open(sys.argv[2]) as f:
        SPEC = json.load(f)
    unittest.main(argv=sys.argv[:1])

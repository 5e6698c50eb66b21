#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py      (from the repository root)

Builds perfbench through run.py, then checks that
  * BENCHMARK.json declares exactly the metrics the binary reports,
    with the same units;
  * every workload, untraced and traced, passes its oracle and prints
    every declared metric by name with its unit, and its last stdout
    line is the JSON result;
  * a planted output mismatch trips each workload's oracle: nonzero
    exit, "correct": false;
  * a directory holding only BENCHMARK.json and perfbench/ (no src/)
    makes run.py fail without printing a result.
Runs use tiny inputs (--scale 0.05) and short phases.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ["streams_city", "dmr_batch", "scbr_pubsub"]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench, {m["name"]: m["unit"] for m in bench["end_to_end"]}, {
        m["name"]: m["unit"] for m in bench["per_layer"]}


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def small(workload, trace, *extra):
    return run("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace",
               str(trace), "--scale", "0.05", *extra)


class BenchmarkTest(unittest.TestCase):
    def test_declared_metrics_match_the_binary(self):
        out = run("--list-metrics")
        self.assertEqual(out.returncode, 0, out.stderr)
        listed = json.loads(out.stdout.strip().splitlines()[-1])
        _, e2e, layers = declared()
        self.assertEqual(dict(map(tuple, listed["end_to_end"])), e2e)
        self.assertEqual(dict(map(tuple, listed["per_layer"])), layers)

    def test_workloads_declared(self):
        bench, _, _ = declared()
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)

    def check_result(self, out, expected):
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line[:1].isalnum()}
        for name, unit in expected.items():
            self.assertEqual(printed.get(name), unit, f"{name} not printed with its unit")
        return result

    def test_every_workload_untraced(self):
        _, e2e, _ = declared()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_result(small(workload, 0), e2e)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced(self):
        _, _, layers = declared()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(small(workload, 1), layers)

    def test_planted_mismatch_trips_the_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = small(workload, 0, "--plant-mismatch")
                self.assertNotEqual(out.returncode, 0)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dmr_batch",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-check of the benchmark's output format.

    python3 perfbench/test_output.py          # from the root of a checkout

Checks BENCHMARK.json's shape, runs every workload in a smoke
configuration (run.py --smoke: a small namespace, two seconds), untraced
and traced, and checks the last line of stdout against the output
contract: exactly the keys correct/attempted/failed/metrics, metric names
of [A-Za-z0-9_.-], a unit on every metric, and every metric BENCHMARK.json
names for that mode. Also checks that run.py fails, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
The smoke runs build the benchmark first if needed (a few minutes once).
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_smoke(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class SpecShape(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        for path in spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)), path)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class SmokeOutput(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        proc = run_smoke(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            spans = os.path.join(build_dir(), "spans", workload + ".jsonl")
            with open(spans) as f:
                first = json.loads(f.readline())
            self.assertEqual(first["name"], "client.op")
            self.assertEqual(
                set(first),
                {"trace_id", "span_id", "parent_id", "name", "start_ns",
                 "end_ns"})


def add_smoke_tests():
    for w in load_spec()["workloads"]:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (w["name"].replace("-", "_"), trace)
            setattr(SmokeOutput, name,
                    lambda self, w=w["name"], t=trace: self.check_run(w, t))


add_smoke_tests()


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        os.makedirs(build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in load_spec()["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 load_spec()["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

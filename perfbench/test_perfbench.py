#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload gets a short untraced and a short traced run; every metric
BENCHMARK.json names must be printed, with its unit, in the closing JSON
object, and the human-readable lines must carry the metrics by name. A
forged reference (one signature, one checksum) must come back as failed
operations, and a directory holding only the benchmark must fail without
printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Workload-specific metric names each workload prints (not in the JSON object,
# whose end-to-end names are shared by all workloads).
NAMED = {
    "compile": ["compile_ms_p50", "compile_ms_p99", "compile_programs_per_s",
                "compile_corpus_ms", "verify_ms_p50", "verify_ms_p99",
                "failed_share"],
    "execute": ["exec_program_ms_p50", "exec_ms", "exec_q25_ms",
                "exec_seq_ms", "exec_speedup_geomean", "failed_share"],
    "serve": ["serve_ms_p50", "serve_ms_p99", "serve_requests_per_s",
              "serve.warm_share_measured", "failed_share"],
}


def run(workload, trace=0, forge=0, seed=7, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    if forge:
        cmd += ["--forge", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        for m in specs:
            self.assertIn(m["name"], res["metrics"])
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                lines, res = result(proc)
                self.assertTrue(res["correct"])
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(res["failed"], 0)
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertEqual(set(res["metrics"]),
                                 {m["name"] for m in SPEC["end_to_end"]})
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0)
                text = "\n".join(lines[:-1])
                self.assertRegex(text, r"nproc=\d+ hardware_concurrency=\d+ "
                                 r"build_type=\S+ P=\d+ corpus_programs=33")
                for name in NAMED[w] + [m["name"] for m in SPEC["end_to_end"]]:
                    # Percentiles carry their sample count.
                    count = r" \[n=\d+\]" if re.search(r"_p\d+$", name) else ""
                    self.assertRegex(
                        text, re.escape(name) + r"\s+= \S+ \S+" + count)

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                _, res = result(proc)
                self.assertTrue(res["correct"])
                self.check_metrics(res, SPEC["per_layer"])
                self.assertGreater(
                    res["metrics"]["bench.trace_overhead"]["value"], 0)

    def test_forged_reference_is_a_failed_operation(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, forge=1)
                _, res = result(proc)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertNotEqual(proc.returncode, 0)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(tmp, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

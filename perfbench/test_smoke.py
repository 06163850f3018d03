"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced (``run.py --smoke``).
The test checks the result line against BENCHMARK.json (every declared
metric, by name and unit, and nothing else), the workload-specific
metrics and the environment on the line before it, that no warning
reached stderr, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_METRICS = {
    "fig1-sweep": {"failed_frac": "1", "cells_per_s": "1/s", "cell_s_p50": "s"},
    "large-sbm": {"failed_frac": "1", "reg_spectral_s": "s"},
    "population-recovery": {"failed_frac": "1", "solve_s": "s", "exact_recovery_frac": "1"},
}
ENV_KEYS = {"nproc", "blas_threads", "python", "numpy", "scipy", "cpu_model", "seed"}


def _run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + ["--smoke"] * smoke, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


class BenchmarkSmokeTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _assert_metrics(self, metrics, declared):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])

    def test_every_workload_emits_every_metric(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(WORKLOAD_METRICS))
        for workload, extra in WORKLOAD_METRICS.items():
            for trace, declared in ((0, self.spec["end_to_end"]), (1, self.spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = _run(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(proc.stderr, "")
                    *_, record_line, result_line = proc.stdout.splitlines()
                    result, record = json.loads(result_line), json.loads(record_line)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self._assert_metrics(result["metrics"], declared)
                    self.assertLessEqual(ENV_KEYS, set(record["env"]))
                    self.assertEqual(record["env"]["seed"], 3)
                    if trace == 0:
                        for name, unit in extra.items():
                            self.assertEqual(record["workload_metrics"][name]["unit"], unit)
                        self.assertEqual(record["workload_metrics"]["failed_frac"]["value"], 0)

    def test_refuses_to_run_without_the_sources(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(bare, "fig1-sweep", 0, smoke=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

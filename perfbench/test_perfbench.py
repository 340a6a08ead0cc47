"""Tests of the repository benchmark at smoke size.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The first test builds the benchmark (as perfbench/run.py does) when the
build tree is missing.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_PY = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("kernels", "serve-cold", "llm-traced", "cluster-overload")


def run(workload, seed=1, trace=0, corrupt=False):
    """Run one smoke-size workload: (exit code, metric lines, result)."""
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
    return proc.returncode, metrics, json.loads(lines[-1])


def catalog():
    """(name, unit, kind) of every metric, as the benchmark lists them."""
    build_dir = os.path.abspath(os.path.join(
        REPO_ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = os.path.join(build_dir, "cmake", "perfbench")
    out = subprocess.run([binary, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    return [tuple(line.split()) for line in out.strip().splitlines()]


def exact_metrics(metrics):
    """Metrics that must repeat exactly for one seed: counts and hashes."""
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "hash", "bytes")
            or name in ("llm.mean_batch", "mem.row_hit_rate",
                        "mem.queue_depth_mean", "model.paper_b1_log_err",
                        "serve.sim_e2e_p99_ms")}


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        # Builds the benchmark if needed, then reads the metric catalog.
        run("cluster-overload")
        cls.catalog = catalog()

    def test_benchmark_json_lists_the_catalog(self):
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = [(m["name"], m["unit"], "end_to_end")
                  for m in spec["end_to_end"]]
        listed += [(m["name"], m["unit"], "per_layer")
                   for m in spec["per_layer"]]
        self.assertEqual(sorted(listed), sorted(self.catalog))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(WORKLOADS))

    def test_every_metric_printed_with_unit_on_every_workload(self):
        units = {name: unit for name, unit, _ in self.catalog}
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, metrics, result = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        {n: u for n, (_, u) in metrics.items()}, units)
                    kind = "per_layer" if trace else "end_to_end"
                    want = {n: u for n, u, k in self.catalog if k == kind}
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        want)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(metrics["error_rate"][0], 0.0)

    def test_corrupted_golden_output_raises_error_rate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, metrics, result = run(workload, corrupt=True)
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(metrics["error_rate"][0], 0.0)

    def test_same_seed_repeats_counts_and_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, _ = run(workload, seed=7, trace=1)
                _, second, _ = run(workload, seed=7, trace=1)
                self.assertEqual(exact_metrics(first), exact_metrics(second))
                if workload == "kernels":
                    self.assertGreater(first["model.digest"][0], 0)

    def test_different_seed_changes_the_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a, _ = run(workload, seed=1)
                _, b, _ = run(workload, seed=2)
                self.assertNotEqual(a["bench.input_digest"][0],
                                    b["bench.input_digest"][0])


if __name__ == "__main__":
    unittest.main()

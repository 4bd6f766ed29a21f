"""Self-test of the benchmark.  From the repository root:

    python3 -m unittest discover -s perfbench

Short fixed-seed traced passes run twice and must give identical exact
counts; every metric name is printed with its unit; BENCHMARK.json lists
exactly the metrics the benchmark prints; and outside a checkout the
benchmark exits non-zero without a result.
"""
import json
import os
import subprocess
import sys
import unittest

from harness import END_TO_END, FUNCTIONS, LAYERS, PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

PRINTED_END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                    "peak_rss_mb", "failed_frac")
# short passes: (workload, --seconds of the traced pass)
PASSES = (("certify", 3), ("fault_sweep", 3), ("ring_queries", 1))


def bench(workload, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):

    def test_traced_counts_repeat_exactly(self):
        units = dict(PER_LAYER)
        for workload, seconds in PASSES:
            with self.subTest(workload=workload):
                runs = [parse(bench(workload, seconds, 1)) for _ in range(2)]
                counts = []
                for lines, detail, result in runs:
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], detail["failures"])
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics), list(units))
                    for name, unit in units.items():
                        self.assertEqual(metrics[name]["unit"], unit)
                        self.assertTrue(any(line.startswith(name + " ")
                                            for line in lines), name)
                    counts.append((
                        {n: m["value"] for n, m in metrics.items()
                         if m["unit"] == "count"},
                        detail["counts"], result["attempted"]))
                    self.assertIsNotNone(
                        detail["provenance"]["trace.overhead_frac"])
                self.assertEqual(counts[0], counts[1])

    def test_end_to_end_metrics_printed(self):
        for workload, _ in PASSES:
            with self.subTest(workload=workload):
                lines, detail, result = parse(bench(workload, 1, 0))
                self.assertTrue(result["correct"], detail["failures"])
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    dict(END_TO_END))
                text = "\n".join(lines)
                for name in PRINTED_END_TO_END:
                    self.assertIn(name, text)
                provenance = detail["provenance"]
                for key in ("python", "git_sha", "nproc", "seed", "seconds",
                            "trace.overhead_frac"):
                    self.assertIn(key, provenance)

    def test_per_layer_names_cover_the_layers(self):
        names = dict(PER_LAYER)
        for function in FUNCTIONS:
            self.assertIn(f"{function}.ms", names)
            self.assertIn(f"{function}.calls", names)
        for layer in LAYERS:
            self.assertIn(f"{layer}.busy_ms", names)
            self.assertIn(f"{layer}.share", names)
        self.assertIn("trace.overhead_frac", names)
        self.assertEqual(len(FUNCTIONS), 32)

    def test_benchmark_json_matches_registry(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w, _ in PASSES])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(PER_LAYER))

    def test_refuses_to_run_outside_a_checkout(self):
        proc = bench("ring_queries", 1, 0, cwd=BENCH_DIR)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

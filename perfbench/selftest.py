#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py            # about two minutes on 2 CPUs

Kept out of the package's test suite on purpose (pytest does not collect
this file name): the traced runs take tens of seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_SUFFIXES = (
    "_calls", ".cells", ".passes", ".rows", ".rows_read", ".rows_scanned",
    ".candidates", ".candidates_new", ".draws", ".rounds", "_misses",
    "_bytes_written", "_mb",
)


def run_cli(*args, cwd=ROOT):
    """``(returncode, stdout lines)`` of one ``run.py`` invocation."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return child.returncode, child.stdout.strip().splitlines()


def traced_record(workload, seed=3):
    code, lines = run_cli(
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"
    )
    assert code == 0, lines[-5:]
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


class TracedPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.records = {name: traced_record(name) for name in WORKLOADS}

    def test_result_line_lists_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, *rest) for name, rest in tracing.LAYER_METRICS.items()],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            [(name, *rest) for name, rest in run.END_TO_END.items()],
        )
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        names = list(tracing.LAYER_METRICS)
        for _, result in self.records.values():
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(list(result["metrics"]), names)
            self.assertTrue(result["correct"])

    def test_acs_layers_cover_the_traced_job(self):
        metrics = self.records["acs-fit"][0]["metrics"]
        self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.9)
        # Without the greedy loop's catch-all self time (about 8%), a
        # layer the tracing missed would show: the parent index alone is 20%.
        self.assertGreaterEqual(metrics["trace.coverage_without_network"]["value"], 0.85)

    def test_counts_repeat_exactly_with_the_same_seed(self):
        for name, (first, _) in self.records.items():
            second, _ = traced_record(name)
            self.assertEqual(first["fingerprint"], second["fingerprint"], name)
            counts = [m for m in first["metrics"] if m.endswith(COUNT_SUFFIXES)]
            self.assertGreater(len(counts), 10)
            for metric in counts:
                self.assertEqual(
                    first["metrics"][metric]["value"],
                    second["metrics"][metric]["value"],
                    f"{name} {metric}",
                )


class Patching(unittest.TestCase):
    def test_every_patched_attribute_is_restored(self):
        before = {
            (owner, attr): tracing.original(owner, attr)
            for owner, attr in tracing.patch_targets()
        }
        runner = run.Runner(WORKLOADS["adult-theta"], 5, ROOT)
        runner.set_up()
        self.assertTrue(runner.job(tracing.Recorder()))
        runner.tear_down()
        with self.assertRaises(ZeroDivisionError):
            with tracing.patched(tracing.Recorder()):
                for owner, attr in before:
                    self.assertIsNot(tracing.original(owner, attr), before[owner, attr])
                1 / 0
        for (owner, attr), fn in before.items():
            self.assertIs(tracing.original(owner, attr), fn, f"{owner}.{attr}")


class TimingPass(unittest.TestCase):
    def test_runs_untraced_and_without_tracemalloc(self):
        code, lines = run_cli("--workload", "adult-theta", "--seed", "2", "--seconds", "1")
        self.assertEqual(code, 0)
        record = json.loads(lines[-2])["perfbench"]
        self.assertFalse(record["tracemalloc_seen"])
        result = json.loads(lines[-1])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec["end_to_end"]])
        for metric in spec["end_to_end"]:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
            self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name)
            code, lines = run_cli("--workload", "adult-theta", "--seconds", "1", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))


class Compare(unittest.TestCase):
    def test_verdicts(self):
        parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        faster = [x * 0.8 for x in parent]
        slower = [x * 1.3 for x in parent]
        noisy = [0.5, 1.5, 0.7, 1.3, 0.6, 1.4, 1.0, 0.8, 1.2, 1.1]
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.1, False)[0], "improved")
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.1, True)[0], "within bound")
        self.assertEqual(compare.verdict(parent, slower, "lower", 0.1, False)[0], "worse")
        self.assertEqual(compare.verdict(parent, slower, "higher", 0.1, False)[0], "improved")
        self.assertEqual(compare.verdict(parent, parent, "lower", 0.1, False)[0], "within bound")
        self.assertEqual(compare.verdict(noisy, parent, "lower", 0.1, False)[0], "unresolved")
        self.assertEqual(compare.verdict(parent, parent, "lower", None, False)[0], "unresolved")


if __name__ == "__main__":
    unittest.main(verbosity=2)

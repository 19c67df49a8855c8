"""Smoke test of the benchmark at tiny sizes.

    python3 -m unittest discover -s bench -p "test_*.py"

Checks that the metrics a run prints are exactly those named in
BENCHMARK.json, with the same units, and that a corrupted result is counted
as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import Cli, Evidence, Query  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def quietly(workload, seconds: float, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.run(workload, seconds, trace)


def named(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


class TestSmoke(unittest.TestCase):
    def assert_metrics(self, result: dict, spec: list) -> None:
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, named(spec))

    def test_end_to_end_metrics_match_spec(self):
        for workload in (Query(1, n=16), Evidence(1, n=24), Cli(1, n=24)):
            with self.subTest(workload=workload.name):
                self.assert_metrics(quietly(workload, 0.05, False), SPEC["end_to_end"])

    def test_per_layer_metrics_match_spec(self):
        for workload in (Query(2, n=16), Evidence(2, n=24)):
            with self.subTest(workload=workload.name):
                self.assert_metrics(quietly(workload, 0.05, True), SPEC["per_layer"])

    def test_same_seed_same_inputs(self):
        a, b = Evidence(3, n=24), Evidence(3, n=24)
        self.assertEqual(a.generate(a.rng("doc")), b.generate(b.rng("doc")))
        self.assertEqual(a.round(0), b.round(0))
        other = Evidence(4, n=24)
        self.assertEqual([op[:2] for op in a.round(0)], [op[:2] for op in other.round(0)])

    def test_corrupted_result_is_counted(self):
        workload = Query(5, n=16)
        execute = workload.execute

        def corrupted(op, tr):
            result, meaning = execute(op, tr)
            return result.complement(), meaning

        workload.execute = corrupted
        result = quietly(workload, 0.05, False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()

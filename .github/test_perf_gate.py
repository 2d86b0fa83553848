"""Tests for perf_gate.py's decision rules, on synthetic results.

Run from the repository root: python3 -m unittest discover -s .github
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_gate  # noqa: E402

SPEC = json.loads((perf_gate.CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 5


def result(correct=True, attempted=100, failed=0, drop=(), **scale):
    """One result file: every end-to-end metric at 10.0 times its `scale`
    factor, except the metrics named in `drop`."""
    metrics = {m["name"]: {"value": 10.0 * scale.get(m["name"], 1.0), "unit": m["unit"]}
               for m in SPEC["end_to_end"] if m["name"] not in drop}
    return {"result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def side(**kw):
    """Every workload with RUNS identical results."""
    return {w: [result(**kw) for _ in range(RUNS)] for w in WORKLOADS}


def changed(workload, **kw):
    """A change side where only `workload`'s results differ."""
    runs = side()
    runs[workload] = [result(**kw) for _ in range(RUNS)]
    return runs


class DecideTest(unittest.TestCase):
    def failures(self, change):
        failures, _ = perf_gate.decide(SPEC, side(), change)
        return failures

    def test_identical_sides_pass_with_a_row_per_metric_and_workload(self):
        failures, rows = perf_gate.decide(SPEC, side(), side())
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), len(WORKLOADS) * len(SPEC["end_to_end"]))

    def test_op_ms_p50_is_held_to_its_bound(self):
        failures = self.failures(changed("round4", op_ms_p50=1.3))
        self.assertEqual(len(failures), 1)
        self.assertIn("round4 op_ms_p50", failures[0])
        self.assertEqual(self.failures(changed("round4", op_ms_p50=1.1)), [])

    def test_higher_is_better_metrics_fail_when_they_drop(self):
        failures = self.failures(changed("train_step", samples_per_s=0.7))
        self.assertEqual(len(failures), 1)
        self.assertIn("train_step samples_per_s", failures[0])
        self.assertEqual(self.failures(changed("train_step", samples_per_s=1.3)), [])

    def test_a_higher_failed_share_fails(self):
        failures = self.failures(changed("remote_score", failed=1))
        self.assertTrue(any("remote_score: failed share" in f for f in failures), failures)

    def test_an_incorrect_change_result_fails(self):
        failures = self.failures(changed("train_step", correct=False))
        self.assertEqual(failures, ["train_step: a change result is not correct"])

    def test_a_metric_missing_from_a_change_result_fails(self):
        failures = self.failures(changed("round4", drop=("knn_acc",)))
        self.assertEqual(failures, ["round4 knn_acc: missing from a change result"])

    def test_a_missing_result_file_fails(self):
        change = side()
        change["train_step"][2] = None
        self.assertEqual(self.failures(change), ["train_step: 1 change result(s) missing"])


if __name__ == "__main__":
    unittest.main()

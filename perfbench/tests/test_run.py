"""Tests for run.py's stamped comparison.

Run from the repository root: python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def result(nproc=2, isa="avx2", threads=2, rev="a", workload="train_step", value=10.0):
    return {
        "workload": workload, "seed": 1, "trace": 0,
        "stamp": {"nproc": nproc, "isa": isa, "sdc_threads": threads, "rev": rev},
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {"op_ms_p50": {"value": value, "unit": "ms"}}},
    }


class CompareTest(unittest.TestCase):
    def compare(self, a, b):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, body in (("a.json", a), ("b.json", b)):
                path = Path(tmp) / name
                path.write_text(json.dumps(body))
                paths.append(str(path))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.compare(*paths)
        return code, out.getvalue()

    def test_same_host_results_compare_across_revisions(self):
        code, out = self.compare(result(rev="a"), result(rev="b", value=11.0))
        self.assertEqual(code, 0)
        self.assertIn("1.1000", out)

    def test_refuses_results_whose_stamps_differ(self):
        for changed in (dict(nproc=4), dict(isa="scalar"), dict(threads=1)):
            code, out = self.compare(result(), result(**changed))
            self.assertEqual(code, 1, changed)
            self.assertIn("refusing to compare", out)

    def test_flags_runs_the_host_disturbed(self):
        disturbed = dict(result(), steal_frac=0.3)
        code, out = self.compare(result(), disturbed)
        self.assertEqual(code, 0)
        self.assertIn("warning: B lost 30.0%", out)

    def test_refuses_different_workloads(self):
        code, _ = self.compare(result(), result(workload="round4"))
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()

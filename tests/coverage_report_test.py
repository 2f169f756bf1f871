#!/usr/bin/env python3
"""Tests of tools/coverage_report.py's gate and summary.

    python3 tests/coverage_report_test.py
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "coverage_report.py"
_SPEC = importlib.util.spec_from_file_location("coverage_report", _TOOL)
coverage_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(coverage_report)

# Line hits as collect() returns them: src/pf 3 of 4 lines covered (75%),
# src/serve 1 of 1, src/util (outside the default gate) 0 of 2.
_HITS = {
    "src/pf/a.cc": {1: 2, 2: 0, 3: 5, 4: 1},
    "src/serve/b.cc": {7: 1},
    "src/util/c.cc": {1: 0, 2: 0},
}


def run_report(out_dir, floor):
    """main() over the stubbed hits with `--out out_dir`; returns
    (exit code, stdout, stderr)."""
    argv = ["coverage_report.py", "--out", str(out_dir),
            "--min-line-coverage", str(floor)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(coverage_report, "collect",
                           lambda build_dir: _HITS), \
            mock.patch.object(sys, "argv", argv), \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = coverage_report.main()
    return code, stdout.getvalue(), stderr.getvalue()


class OutsideTheCheckoutTest(unittest.TestCase):
    """--out in a directory the checkout does not contain: the report is
    written, its path printed as given, and the floor still decides."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.out_dir = Path(self._tmp.name) / "report"
        self.assertFalse(
            self.out_dir.resolve().is_relative_to(coverage_report.REPO))

    def tearDown(self):
        self._tmp.cleanup()

    def test_under_the_floor_fails_the_gate(self):
        code, out, err = run_report(self.out_dir, 90.0)
        self.assertEqual(code, 1)
        self.assertIn("COVERAGE GATE FAILED: 80.0% < floor 90.0%", err)
        self.assertIn(f"-> {self.out_dir}/", out)
        report = json.loads((self.out_dir / "coverage.json").read_text())
        self.assertEqual(report["gate"]["percent"], 80.0)
        self.assertTrue((self.out_dir / "coverage.html").exists())

    def test_over_the_floor_passes(self):
        code, out, err = run_report(self.out_dir, 80.0)
        self.assertEqual(code, 0)
        self.assertNotIn("COVERAGE GATE FAILED", err)
        self.assertIn("gate src/serve+src/pf = 80.0% line coverage (4/5)",
                      out)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of tools/bench_compare.py's pair check and spread.

    python3 tests/bench_compare_test.py
"""

import importlib.util
import unittest
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def run(**counters):
    """One correct run with the four exact counters, overridden by name."""
    values = {"digest": 7, "events": 100, "particle_updates": 5000,
              "state_bytes": 4096}
    values.update(counters)
    return {"metrics": {"setup_s": 1.0}, "counters": values, "failed": 0}


class CheckPairTest(unittest.TestCase):
    def test_equal_counters_pass_either_way(self):
        for expect in (False, True):
            self.assertEqual(bench_compare.check_pair(run(), run(), expect),
                             ([], []))

    def test_differing_counters_fail_unless_expected(self):
        base, change = run(), run(digest=8, particle_updates=4000)
        problems, notes = bench_compare.check_pair(base, change)
        self.assertEqual(notes, [])
        self.assertEqual(len(problems), 1)
        self.assertIn("digest 7 -> 8", problems[0])
        self.assertIn("particle_updates 5000 -> 4000", problems[0])

        problems, notes = bench_compare.check_pair(base, change, True)
        self.assertEqual(problems, [])
        self.assertEqual(len(notes), 1)
        self.assertIn("digest 7 -> 8", notes[0])
        self.assertIn("particle_updates 5000 -> 4000", notes[0])
        self.assertNotIn("events", notes[0])

    def test_failed_incorrect_or_counter_missing_runs_still_fail(self):
        errored = run()
        errored["error"] = "exit 1, correct=False: digest mismatch"
        failing = run()
        failing["failed"] = 3
        missing = run()
        del missing["counters"]["state_bytes"]
        for bad in (errored, failing, missing):
            for base, change in ((bad, run()), (run(), bad)):
                problems, notes = bench_compare.check_pair(base, change,
                                                           True)
                self.assertEqual(len(problems), 1, problems)
                self.assertEqual(notes, [])


class SpreadTest(unittest.TestCase):
    def test_exclusive_quartiles(self):
        # Exclusive quartiles of 1..5 are 1.5 and 4.5 around a median of 3;
        # the inclusive ones (2 and 4) would read 0.67.
        self.assertAlmostEqual(bench_compare.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertAlmostEqual(bench_compare.spread([5, 3, 1, 4, 2]), 1.0)

    def test_too_few_samples_and_zero_median(self):
        self.assertIsNone(bench_compare.spread([]))
        self.assertIsNone(bench_compare.spread([2.0]))
        self.assertEqual(bench_compare.spread([-1.0, 0.0, 0.0, 1.0]),
                         float("inf"))


if __name__ == "__main__":
    unittest.main()

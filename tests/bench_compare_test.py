#!/usr/bin/env python3
"""Tests of tools/bench_compare.py's pair check, spread, verdicts and run
order.

    python3 tests/bench_compare_test.py
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


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def pairs(base, change):
    return list(zip(base, change))


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_tenths_of_the_pairs(self):
        # 10/10 pairs won, medians 0.15 apart against a base IQR of ~0.03.
        faster = [0.85 * b for b in BASE]
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, faster), True, 0.25), "gain")
        # 9/10 still is one.
        nine = faster[:9] + [BASE[9] + 0.01]
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, nine), True, 0.25), "gain")
        # 8/10 is not, however far apart the medians are.
        eight = faster[:8] + [BASE[8] + 0.01, BASE[9] + 0.01]
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, eight), True, 0.25),
            "within bound")

    def test_gain_needs_medians_apart_by_more_than_the_base_iqr(self):
        # Every pair won, but by less than the base's own q3 - q1.
        change = [b - 0.005 for b in BASE]
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, change), True, 0.25),
            "within bound")

    def test_gain_for_a_higher_is_better_metric(self):
        more = [1.2 * b for b in BASE]
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, more), False, 0.1), "gain")
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, [0.85 * b for b in BASE]),
                                  False, 0.1), "worse")

    def test_worse_by_more_than_the_bound(self):
        slower = [1.3 * b for b in BASE]
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, slower), True, 0.25), "worse")
        # 20% slower sits within a 0.25 bound.
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, [1.2 * b for b in BASE]), True,
                                  0.25), "within bound")

    def test_unresolved_when_the_base_spreads_past_the_bound(self):
        noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        change = [1.05, 0.95, 1.1, 0.9, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01]
        self.assertGreater(bench_compare.spread(noisy), 0.25)
        self.assertEqual(
            bench_compare.verdict(pairs(noisy, change), True, 0.25),
            "unresolved")

    def test_every_change_run_better_than_every_base_run_resolves(self):
        # The base spreads past the bound and the medians sit within its
        # IQR (no gain), but no change run is slower than any base run.
        base = [1.0] * 5 + [3.0] * 5
        change = [0.9] * 10
        self.assertGreater(bench_compare.spread(base), 0.25)
        self.assertEqual(
            bench_compare.verdict(pairs(base, change), True, 0.25),
            "within bound")

    def test_within_bound_and_without_a_bound(self):
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, BASE), True, 0.25),
            "within bound")
        self.assertEqual(bench_compare.verdict(pairs(BASE, BASE), True, None),
                         "-")
        self.assertEqual(
            bench_compare.verdict(pairs(BASE, [0.85 * b for b in BASE]),
                                  True, None), "gain")
        # One pair: no quartiles, so no gain.
        self.assertEqual(bench_compare.verdict([(1.0, 0.5)], True, 0.25),
                         "within bound")


class RunOrderTest(unittest.TestCase):
    def test_each_workload_alternates_which_side_runs_first(self):
        # Two workloads over four seeds: a counter shared across workloads
        # would run fleet base-first in 4 of 4 pairs and warehouse
        # change-first in 4 of 4.
        calls = []

        def fake_run_side(checkout, workload, seed, smoke, trace):
            calls.append((checkout.name, workload, seed))
            return run()

        spec = {"workloads": [{"name": "fleet"}, {"name": "warehouse"}],
                "end_to_end": [{"name": "setup_s", "better": "lower",
                                "bound": 0.25}]}
        with tempfile.TemporaryDirectory() as tmp:
            for side in ("base", "change"):
                root = Path(tmp) / side
                (root / "e2e_bench").mkdir(parents=True)
                (root / "e2e_bench" / "run.py").touch()
                (root / "BENCHMARK.json").write_text(json.dumps(spec))
            argv = ["bench_compare.py", str(Path(tmp) / "base"),
                    str(Path(tmp) / "change"), "--workload", "fleet",
                    "--workload", "warehouse", "--seeds", "4"]
            with mock.patch.object(bench_compare, "run_side",
                                   fake_run_side), \
                    mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(bench_compare.main(), 0)

        self.assertEqual(len(calls), 16)
        firsts = calls[0::2]
        for first, second in zip(firsts, calls[1::2]):
            self.assertEqual(first[1:], second[1:])
            self.assertNotEqual(first[0], second[0])
        for workload in ("fleet", "warehouse"):
            sides = [side for side, w, _ in firsts if w == workload]
            self.assertEqual(len(sides), 4)
            self.assertEqual(sides.count("base"), 2, sides)


if __name__ == "__main__":
    unittest.main()

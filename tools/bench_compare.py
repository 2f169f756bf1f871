#!/usr/bin/env python3
"""Interleaved A/B comparison of the end-to-end benchmark on two checkouts.

Runs each checkout's own ``e2e_bench/run.py --workload W --seed S`` for N
seeds per workload, alternating which side runs first from pair to pair,
and prints, for every end-to-end metric BENCHMARK.json lists:

  * both sides' medians,
  * the median of the paired ratios (change / base),
  * the wins: pairs where the change is better, ties counting for neither,
  * the base's spread, (q3 - q1) / median, beside the metric's bound,
  * a verdict, the first of these that holds:
      gain          the change wins at least 90% of the pairs and the
                    medians differ by more than the base's q3 - q1;
      worse         the change's median is worse than the base's by more
                    than the bound;
      unresolved    the base spread is above the bound and not every change
                    run beats every base run;
      within bound  none of the above.

The exact work counters (digest, events, particle_updates, state_bytes)
must agree pair by pair: any difference is flagged and the exit status is
non-zero, as it is when a run fails, reports incorrect output or omits a
counter. A change that alters what the program draws or counts on purpose
passes --expect-counter-change: differing counters are then printed, base
-> change, without failing. Neither checkout's BENCHMARK.json or e2e_bench/
is modified; each side builds into its own <checkout>/.bench_build.

    git worktree add ../parent HEAD~1
    python3 tools/bench_compare.py ../parent . --seeds 10
    python3 tools/bench_compare.py ../parent . --workload fleet --trace
    python3 tools/bench_compare.py ../parent . --expect-counter-change
    python3 tools/bench_compare.py . . --smoke --seeds 1   # self-check

--trace compares the per-layer metrics of traced runs instead (no bounds).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

EXACT_COUNTERS = ("digest", "events", "particle_updates", "state_bytes")
COUNTER_LINE = re.compile(r"^\s*counter\s+(\S+)\s+(\d+)\s*$")
RUN_TIMEOUT_S = 1200  # run.py bounds its build (600 s) and run (170 s).


def fail(message: str) -> None:
    print("bench_compare: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec(checkout: Path) -> dict:
    try:
        return json.loads((checkout / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {checkout / 'BENCHMARK.json'}: {e}")


def run_side(checkout: Path, workload: str, seed: int, smoke: bool,
             trace: bool) -> dict:
    """One run of the checkout's own runner: its metrics and counters, or
    an 'error' entry when it failed."""
    cmd = [sys.executable, str(checkout / "e2e_bench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0",
           "--build-dir", str(checkout / ".bench_build")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    counters = {}
    for line in lines:
        match = COUNTER_LINE.match(line)
        if match:
            counters[match.group(1)] = int(match.group(2))
    out = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
           "counters": counters, "failed": result.get("failed", 0)}
    if proc.returncode != 0 or not result.get("correct", False):
        out["error"] = (f"exit {proc.returncode}, correct="
                        f"{result.get('correct')}: {proc.stderr.strip()[-2000:]}")
    return out


def check_pair(b: dict, c: dict,
               expect_counter_change: bool = False) -> tuple[list, list]:
    """(problems, notes) for one pair. Problems fail the comparison: a
    failed or incorrect run, an exact counter missing, or one differing
    between the sides. With expect_counter_change a difference is a note
    instead, listing each differing counter base -> change."""
    problems = []
    for name, side in (("base", b), ("change", c)):
        if "error" in side:
            problems.append(f"{name} run failed: {side['error']}")
        elif side["failed"]:
            problems.append(f"{name} run reports {side['failed']} failed")
    if problems:
        return problems, []
    missing = sorted({k for k in EXACT_COUNTERS for side in (b, c)
                      if k not in side["counters"]})
    if missing:
        return ["exact counters missing: " + ", ".join(missing)], []
    differs = [k for k in EXACT_COUNTERS
               if b["counters"][k] != c["counters"][k]]
    if not differs:
        return [], []
    line = "exact counters differ: " + ", ".join(
        f"{k} {b['counters'][k]} -> {c['counters'][k]}" for k in differs)
    return ([], [line]) if expect_counter_change else ([line], [])


def shown(side: dict, name: str) -> str:
    value = side.get("metrics", {}).get(name)
    return "-" if value is None else "%.4g" % value


def spread(values: list[float]) -> float | None:
    """(q3 - q1) / median, or None below two samples. The quartiles are
    statistics.quantiles' default (exclusive) ones, as e2e_bench/run.py
    --repeat reports them."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


GAIN_SHARE = 0.9  # Share of pairs the change must win to claim a gain.


def verdict(both: list[tuple[float, float]], lower: bool,
            bound: float | None) -> str:
    """The row's verdict over its (base, change) pairs, the first that
    holds: 'gain' (wins in at least GAIN_SHARE of the pairs, ties counting
    for neither, and medians apart by more than the base's q3 - q1),
    'worse' (the change's median worse than the base's by more than the
    relative bound), 'unresolved' (the base spread above the bound and not
    every change run better than every base run), else 'within bound'.
    Without a bound only a gain is judged; other rows read '-'."""
    base = [b for b, _ in both]
    change = [c for _, c in both]
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(1 for b, c in both if better(c, b))
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    if len(base) >= 2 and wins >= GAIN_SHARE * len(both):
        q1, _, q3 = statistics.quantiles(base, n=4)
        if better(change_median, base_median) and \
                abs(change_median - base_median) > q3 - q1:
            return "gain"
    if bound is None:
        return "-"
    loss = change_median - base_median if lower else base_median - change_median
    if loss > bound * abs(base_median):
        return "worse"
    s = spread(base)
    every_run_better = all(better(c, b) for c in change for b in base)
    if s is not None and s > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def report(workloads: list[str], metrics: list[dict], pairs: dict) -> None:
    print()
    print("%-10s %-26s %12s %12s %9s %7s %11s %6s  %s" % (
        "workload", "metric", "base", "change", "ratio", "wins",
        "base spread", "bound", "verdict"))
    for workload in workloads:
        runs = pairs[workload]
        for m in metrics:
            name = m["name"]
            both = [(b["metrics"][name], c["metrics"][name]) for b, c in runs
                    if name in b.get("metrics", {})
                    and name in c.get("metrics", {})]
            if not both:
                continue
            base = [b for b, _ in both]
            change = [c for _, c in both]
            ratios = [c / b for b, c in both if b]
            lower = m.get("better", "lower") == "lower"
            wins = sum(1 for b, c in both if (c < b if lower else c > b))
            s = spread(base)
            bound = m.get("bound")
            print("%-10s %-26s %12.6g %12.6g %9s %7s %11s %6s  %s" % (
                workload, name, statistics.median(base),
                statistics.median(change),
                "%.3f" % statistics.median(ratios) if ratios else "n/a",
                "%d/%d" % (wins, len(both)),
                "%.4f" % s if s is not None else "n/a",
                "%.2f" % bound if bound is not None else "",
                verdict(both, lower, bound)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every BENCHMARK.json "
                             "workload")
    parser.add_argument("--seeds", type=int, default=5,
                        help="seed pairs per workload (default 5)")
    parser.add_argument("--seed", type=int, default=11,
                        help="first seed (default 11)")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs (run.py --smoke)")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs; compare the per-layer metrics")
    parser.add_argument("--expect-counter-change", action="store_true",
                        help="the change alters the exact counters on "
                             "purpose: print differences, do not fail on "
                             "them")
    args = parser.parse_args()

    base, change = args.base.resolve(), args.change.resolve()
    for side in (base, change):
        if not (side / "e2e_bench" / "run.py").is_file():
            fail(f"{side} has no e2e_bench/run.py")
    spec = load_spec(change)
    if load_spec(base) != spec:
        print("bench_compare: note: the two BENCHMARK.json files differ; "
              "metrics and bounds are the change's")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    pairs = {w: [] for w in workloads}
    problems = []
    notes = []
    index = 0
    for seed in range(args.seed, args.seed + args.seeds):
        for workload in workloads:
            # Each workload alternates on its own pair count: one counter
            # shared by all would give every workload the same side first
            # in every pair whenever the number of workloads is even.
            order = [("base", base), ("change", change)]
            if len(pairs[workload]) % 2:
                order.reverse()
            index += 1
            got = {name: run_side(path, workload, seed, args.smoke, args.trace)
                   for name, path in order}
            b, c = got["base"], got["change"]
            failed, noted = check_pair(b, c, args.expect_counter_change)
            problems += [f"{workload} seed {seed}: {p}" for p in failed]
            notes += [f"{workload} seed {seed}: {n}" for n in noted]
            pairs[workload].append((b, c))
            print("pair %-3d %-10s seed %-4d first %-6s %s" % (
                index, workload, seed, order[0][0], "  ".join(
                    "%s %s/%s" % (m["name"], shown(b, m["name"]),
                                  shown(c, m["name"]))
                    for m in metrics[:4])), flush=True)

    report(workloads, metrics, pairs)
    print()
    for line in notes:
        print("expected: " + line)
    for line in problems:
        print("FLAG: " + line)
    if problems:
        return 1
    if notes:
        print("exact counters (%s) differ in %d of %d pairs, as expected" % (
            ", ".join(EXACT_COUNTERS), len(notes), index))
    else:
        print("exact counters (%s) equal in every pair" % ", ".join(
            EXACT_COUNTERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

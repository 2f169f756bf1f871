#!/usr/bin/env python3
"""Aggregate gcov line coverage and gate the serving + filter cores.

Replaces gcovr/lcov (absent from the CI and dev images) with gcc's own
``gcov --json-format``: every .gcda left behind by a test run of an
RFID_COVERAGE=ON build is fed through gcov, the per-TU line records are
unioned per source file (a line is covered if ANY test binary executed it),
and the gate fails when line coverage of the gated trees (src/serve/ and
src/pf/ by default) drops below the floor.

Outputs into --out:
  coverage.json   {file: {covered, executable, percent}}, totals, gate
  coverage.html   one-table report, worst-covered files first

Usage:
  python3 tools/coverage_report.py --build-dir build-cov \
      --gate src/serve --gate src/pf --min-line-coverage 80.0
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_gcov(gcda: Path, cwd: Path) -> list[dict]:
    """One gcov invocation, JSON on stdout (one document per input)."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", str(gcda)],
        capture_output=True, text=True, cwd=cwd)
    if proc.returncode != 0:
        print(f"coverage_report: gcov failed on {gcda}: {proc.stderr.strip()}",
              file=sys.stderr)
        return []
    docs = []
    for chunk in proc.stdout.splitlines():
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            docs.append(json.loads(chunk))
        except json.JSONDecodeError:
            continue
    return docs


def collect(build_dir: Path) -> dict[str, dict[int, int]]:
    """{repo-relative source: {line: max hit count across TUs}}."""
    gcdas = sorted(build_dir.rglob("*.gcda"))
    if not gcdas:
        raise SystemExit(
            f"coverage_report: no .gcda under {build_dir} — build with "
            "-DRFID_COVERAGE=ON and run the tests first")
    hits: dict[str, dict[int, int]] = defaultdict(dict)
    with tempfile.TemporaryDirectory() as scratch:
        for gcda in gcdas:
            for doc in run_gcov(gcda, Path(scratch)):
                for frec in doc.get("files", []):
                    src = Path(frec.get("file", ""))
                    if not src.is_absolute():
                        src = (build_dir / src).resolve()
                    try:
                        rel = src.resolve().relative_to(REPO).as_posix()
                    except ValueError:
                        continue  # system header
                    if not rel.startswith("src/"):
                        continue
                    per_line = hits[rel]
                    for line in frec.get("lines", []):
                        n = line.get("line_number")
                        c = line.get("count", 0)
                        if n is not None:
                            per_line[n] = max(per_line.get(n, 0), c)
    return hits


def main() -> int:
    ap = argparse.ArgumentParser(prog="coverage_report")
    ap.add_argument("--build-dir", default="build-cov")
    ap.add_argument("--gate", action="append", default=[],
                    help="repo-relative tree that counts toward the gate "
                         "(repeatable; default src/serve + src/pf)")
    ap.add_argument("--min-line-coverage", type=float, default=None,
                    metavar="PCT",
                    help="fail if gated line coverage falls below PCT")
    ap.add_argument("--out", default="coverage-report")
    args = ap.parse_args()
    gates = args.gate or ["src/serve", "src/pf"]

    build_dir = (REPO / args.build_dir).resolve()
    hits = collect(build_dir)

    per_file = {}
    for rel in sorted(hits):
        per_line = hits[rel]
        executable = len(per_line)
        covered = sum(1 for c in per_line.values() if c > 0)
        per_file[rel] = {
            "covered": covered,
            "executable": executable,
            "percent": round(100.0 * covered / executable, 2)
            if executable else 0.0,
        }

    def tree_stats(prefixes):
        cov = exe = 0
        for rel, st in per_file.items():
            if any(rel.startswith(p.rstrip("/") + "/") for p in prefixes):
                cov += st["covered"]
                exe += st["executable"]
        pct = 100.0 * cov / exe if exe else 0.0
        return cov, exe, round(pct, 2)

    g_cov, g_exe, g_pct = tree_stats(gates)
    a_cov, a_exe, a_pct = tree_stats(["src"])

    out_dir = REPO / args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "gate_trees": gates,
        "gate": {"covered": g_cov, "executable": g_exe, "percent": g_pct,
                 "floor": args.min_line_coverage},
        "all_src": {"covered": a_cov, "executable": a_exe, "percent": a_pct},
        "files": per_file,
    }
    (out_dir / "coverage.json").write_text(json.dumps(report, indent=2))

    rows = sorted(per_file.items(), key=lambda kv: kv[1]["percent"])
    html = ["<!doctype html><meta charset='utf-8'><title>coverage</title>",
            "<style>body{font:14px monospace}td,th{padding:2px 10px;"
            "text-align:right}td:first-child{text-align:left}</style>",
            f"<h2>line coverage — gate {'+'.join(gates)}: {g_pct}% "
            f"({g_cov}/{g_exe}), all src/: {a_pct}%</h2>",
            "<table><tr><th>file</th><th>covered</th><th>executable</th>"
            "<th>%</th></tr>"]
    for rel, st in rows:
        html.append(f"<tr><td>{rel}</td><td>{st['covered']}</td>"
                    f"<td>{st['executable']}</td><td>{st['percent']}</td>"
                    "</tr>")
    html.append("</table>")
    (out_dir / "coverage.html").write_text("\n".join(html))

    try:
        shown = out_dir.relative_to(REPO)
    except ValueError:  # --out outside the checkout
        shown = out_dir
    print(f"coverage_report: {len(per_file)} files, "
          f"gate {'+'.join(gates)} = {g_pct}% line coverage "
          f"({g_cov}/{g_exe}), all src/ = {a_pct}% -> {shown}/")

    if args.min_line_coverage is not None and g_pct < args.min_line_coverage:
        print(f"COVERAGE GATE FAILED: {g_pct}% < floor "
              f"{args.min_line_coverage}% on {'+'.join(gates)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""rfid-verify: call-graph-aware semantic linter for determinism, RNG-stream
and serialization invariants.

rfid-verify parses every first-party translation unit (enumerated from the
build's compile_commands.json), builds a project-wide call graph, and
enforces the repo's hardest invariants *by reachability*:

  rng-discipline  every Rng construction/seed must flow from the
                  SlotStreamSeed/SlotStreamSeedAt/SplitMix64 chain; bare
                  integer-literal or clock-derived seeds are flagged, as are
                  the raw nondeterminism sources (mt19937, random_device,
                  rand, time(), system_clock) outside util/rng.h and
                  util/stopwatch.h.
  ordered-emit    no iteration over std::unordered_{map,set} in any function
                  reachable from SubscriptionBus::Dispatch, TakeEvents,
                  snapshot/checkpoint save, RenderPrometheus/RenderJson/
                  StatsJson or the event-emission funnel. Hash order must
                  never decide event, byte or sample order.
  lock-hold-io    no file IO in any function reachable while a
                  REQUIRES-annotated mutex (PR 9's annotations) or a scoped
                  MutexLock/SharedReaderLock is held.
  format-window   every WriteFramedSection writer has a version-gated reader
                  in the same TU, every k*Version constant is actually
                  compared somewhere, and the writer-to-min-version load
                  window never exceeds the one-version-back policy.

Suppression syntax (counted, capped per check in config.py, reasons
mandatory, unused suppressions are errors):

    // RFID_VERIFY_ALLOW(ordered-emit): rows are sorted by site before emit

--fast runs only the file-local comment-hygiene rules (fast.py: SAFETY
justifications on thread-safety escapes, NOLINT and RFID_VERIFY_ALLOW
reason formats) in well under a second, with no build tree and no parse.

The frontend is the self-contained lexer/parser in this package: the CI and
dev containers ship gcc without libclang, so rfid-verify depends on nothing
beyond the Python stdlib. compile_commands.json still drives the TU list so
the analyzed set tracks the build graph.

Exit status: 0 clean (or cache hit), 1 violations, 2 setup error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from pathlib import Path

TOOL_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOL_DIR))

import checks as checks_mod  # noqa: E402
import config  # noqa: E402
import fast  # noqa: E402
import graph as graph_mod  # noqa: E402
import lexer  # noqa: E402
import parse as parse_mod  # noqa: E402

REPO = TOOL_DIR.parent.parent

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def repo_includes(source: Path, include_root: Path, seen: set) -> None:
    if source in seen or not source.is_file():
        return
    seen.add(source)
    try:
        text = source.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return
    for name in INCLUDE_RE.findall(text):
        repo_includes(include_root / name, include_root, seen)


def collect_sources(build_dir: Path, src_root: Path) -> list:
    """TUs under src/ from compile_commands.json plus their transitive
    repo headers; falls back to a glob when no build exists yet."""
    compdb = build_dir / "compile_commands.json"
    files: set = set()
    if compdb.is_file():
        try:
            entries = json.loads(compdb.read_text())
        except (json.JSONDecodeError, OSError):
            entries = []
        for e in entries:
            p = Path(e.get("file", "")).resolve()
            if src_root in p.parents:
                repo_includes(p, src_root, files)
    if not files:
        files = {p for p in src_root.rglob("*")
                 if p.suffix in (".h", ".cc", ".cpp", ".hpp") and p.is_file()}
    return sorted(files)


def cache_key(paths: list, argv_salt: str) -> str:
    h = hashlib.sha256()
    h.update(b"rfid-verify-v1\n")
    h.update(argv_salt.encode())
    for tool_file in sorted(TOOL_DIR.glob("*.py")):
        h.update(tool_file.name.encode())
        h.update(hashlib.sha256(tool_file.read_bytes()).hexdigest().encode())
    for p in paths:
        h.update(str(p).encode())
        h.update(hashlib.sha256(Path(p).read_bytes()).hexdigest().encode())
    return h.hexdigest()


def parse_kv_counts(specs, what: str) -> dict:
    out = {}
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SystemExit(f"bad {what} spec '{part}' (want check=N)")
            k, v = part.split("=", 1)
            if k not in config.CHECKS:
                raise SystemExit(f"{what}: unknown check '{k}'")
            out[k] = int(v)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(prog="rfid_verify")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--src-root", default="src")
    ap.add_argument("--file", nargs="*", default=None,
                    help="analyze exactly these files (negative-corpus mode)")
    ap.add_argument("--cache-dir", default=".rfid-verify-cache")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--checks", default=",".join(config.CHECKS))
    ap.add_argument("--max-suppressions", action="append", default=[],
                    metavar="CHECK=N", help="override a suppression cap")
    ap.add_argument("--expect-suppressions", action="append", default=[],
                    metavar="CHECK=N",
                    help="fail unless exactly N suppressions are in use")
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--fast", action="store_true",
                    help="only the file-local comment-hygiene rules")
    args = ap.parse_args()
    if args.fast:
        return fast.run(REPO, (REPO / args.src_root).resolve())

    t0 = time.monotonic()
    active_checks = tuple(c.strip() for c in args.checks.split(",") if c)
    for c in active_checks:
        if c not in config.CHECKS:
            print(f"unknown check: {c}", file=sys.stderr)
            return 2
    caps = dict(config.SUPPRESSION_CAPS)
    caps.update(parse_kv_counts(args.max_suppressions, "--max-suppressions"))
    expects = parse_kv_counts(args.expect_suppressions,
                              "--expect-suppressions")

    if args.file is not None:
        paths = [Path(f).resolve() for f in args.file]
        missing = [p for p in paths if not p.is_file()]
        if missing:
            print(f"missing files: {missing}", file=sys.stderr)
            return 2
    else:
        paths = collect_sources((REPO / args.build_dir).resolve(),
                                (REPO / args.src_root).resolve())
        if not paths:
            print("rfid-verify: no sources found", file=sys.stderr)
            return 2

    argv_salt = f"{sorted(caps.items())}|{active_checks}|{sorted(expects.items())}"
    cache_dir = REPO / args.cache_dir
    key = None
    if not args.no_cache:
        key = cache_key(paths, argv_salt)
        stamp = cache_dir / key
        if stamp.is_file():
            print(f"rfid-verify: {len(paths)} files unchanged since last "
                  f"clean run (cache hit, "
                  f"{time.monotonic() - t0:.2f}s)")
            return 0

    def repo_rel(p) -> str:
        try:
            return str(Path(p).relative_to(REPO))
        except ValueError:
            return str(p)

    file_models = []
    for p in paths:
        text = Path(p).read_text(encoding="utf-8", errors="replace")
        file_models.append(parse_mod.parse_file(lexer.lex(str(p), text)))

    cg = graph_mod.CallGraph(file_models)
    t_parse = time.monotonic() - t0

    violations = checks_mod.run_checks(file_models, cg, active_checks)
    suppressions = checks_mod.collect_suppressions(file_models)
    remaining, counts, hygiene = checks_mod.apply_suppressions(
        violations, suppressions)
    remaining.extend(hygiene)

    for check, n in sorted(counts.items()):
        cap = caps.get(check)
        if cap is not None and n > cap:
            remaining.append(checks_mod.Violation(
                "suppression", str(REPO), 0,
                f"{n} RFID_VERIFY_ALLOW({check}) suppressions exceed the "
                f"cap of {cap}; fix violations or raise the cap in "
                "tools/rfid_verify/config.py with review"))
    for check, want in sorted(expects.items()):
        got = counts.get(check, 0)
        if got != want:
            remaining.append(checks_mod.Violation(
                "suppression", str(REPO), 0,
                f"expected exactly {want} RFID_VERIFY_ALLOW({check}) "
                f"suppressions in use, found {got} — update the "
                "negative-corpus expectation alongside the code"))

    remaining.sort(key=lambda v: (v.path, v.line, v.check))
    for v in remaining:
        print(v.render(repo_rel))

    elapsed = time.monotonic() - t0
    n_fns = len(cg.functions)
    n_edges = sum(len(e) for e in cg.edges.values())
    sup_str = ", ".join(f"{c}={counts[c]}" for c in config.CHECKS)
    print(f"rfid-verify: {len(paths)} files, {n_fns} functions, "
          f"{n_edges} call edges, {len(remaining)} violations, "
          f"suppressions in use: {sup_str} "
          f"(parse {t_parse:.2f}s, total {elapsed:.2f}s)")

    if args.verbose:
        roots = checks_mod._emit_roots(cg)
        print("ordered-emit roots:",
              ", ".join(sorted({f.qual for f in roots})))

    if remaining:
        return 1
    if key is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        (cache_dir / key).touch()
    return 0


if __name__ == "__main__":
    sys.exit(main())

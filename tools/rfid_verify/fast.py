"""--fast: the sub-second, file-local comment-hygiene rules.

They need no parsing, so they run without a build tree:

1. Escape-hatch accounting: every RFID_NO_THREAD_SAFETY_ANALYSIS outside
   the defining header needs a "// SAFETY:" justification comment within
   the preceding few lines, and every NOLINT must name a check and carry a
   reason ("NOLINT(check-name): why").

2. RFID_VERIFY_ALLOW format: suppressions must name a known check and carry
   a reason ("// RFID_VERIFY_ALLOW(check): why"). The full analysis
   re-validates them (and rejects *unused* ones); this pass catches
   malformed ones without waiting for it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import config

NO_TSA = "RFID_NO_THREAD_SAFETY_ANALYSIS"
# The header that defines the macro (and documents the policy).
NO_TSA_DEFINING = "util/thread_annotations.h"
SAFETY_RE = re.compile(r"//\s*SAFETY")
# How many lines above an escape the SAFETY comment may start. The comment
# block is usually several lines (and a /// doc comment may sit between it
# and the declaration); any line of it within the window counts.
SAFETY_WINDOW = 12

NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?\b(?P<rest>[^\n]*)")
NOLINT_OK_RE = re.compile(r"^\([\w\-.,* ]+\)\s*:\s*\S")

ALLOW_RE = re.compile(r"RFID_VERIFY_ALLOW\b(?P<rest>[^\n]*)")
ALLOW_OK_RE = re.compile(r"^\(\s*(?P<check>[\w-]+)\s*\)\s*:\s*\S")


def strip_line_comments(line: str) -> str:
    """Code part of a line (comments removed). Good enough for these
    patterns; block comments spanning lines are rare in this tree."""
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def lint_file(path: Path, repo: Path, src: Path, findings: list) -> int:
    rel = path.relative_to(repo).as_posix()
    rel_src = path.relative_to(src).as_posix() if src in path.parents else rel
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        findings.append(f"{rel}: not valid UTF-8")
        return 0

    escapes = 0
    for i, raw in enumerate(lines, start=1):
        code = strip_line_comments(raw)

        if NO_TSA in code and rel_src != NO_TSA_DEFINING:
            escapes += 1
            window = lines[max(0, i - 1 - SAFETY_WINDOW):i]
            if not any(SAFETY_RE.search(w) for w in window):
                findings.append(
                    f"{rel}:{i}: {NO_TSA} without a '// SAFETY:' "
                    f"justification within the {SAFETY_WINDOW} lines above")

        for m in NOLINT_RE.finditer(raw):
            rest = m.group("rest").strip()
            if not NOLINT_OK_RE.match(rest):
                findings.append(
                    f"{rel}:{i}: NOLINT must name its check and a reason: "
                    "// NOLINT(check-name): why")

        for m in ALLOW_RE.finditer(raw):
            ok = ALLOW_OK_RE.match(m.group("rest").strip())
            if not ok:
                findings.append(
                    f"{rel}:{i}: RFID_VERIFY_ALLOW must name a check and a "
                    "reason: // RFID_VERIFY_ALLOW(check): why")
            elif ok.group("check") not in config.CHECKS:
                findings.append(
                    f"{rel}:{i}: RFID_VERIFY_ALLOW names unknown check "
                    f"'{ok.group('check')}' (known: "
                    f"{', '.join(sorted(config.CHECKS))})")
    return escapes


def run(repo: Path, src: Path) -> int:
    """Lints every source under `src`. Exit status: 0 clean, 1 findings,
    2 no sources."""
    files = sorted(
        p for p in src.rglob("*")
        if p.suffix in {".h", ".cc", ".cpp", ".hpp"} and p.is_file())
    if not files:
        print("rfid-verify --fast: no sources found under src/",
              file=sys.stderr)
        return 2

    findings: list = []
    total_escapes = 0
    for path in files:
        total_escapes += lint_file(path, repo, src, findings)

    for finding in findings:
        print(finding)
    print(
        f"rfid-verify --fast: {len(files)} files, "
        f"{total_escapes} justified thread-safety escapes, "
        f"{len(findings)} findings")
    return 1 if findings else 0

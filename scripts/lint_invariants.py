#!/usr/bin/env python3
"""Repo-invariant linter: mechanical checks generic tools cannot express.

Rules (each can be listed with --list-rules):

  stage-in-launch         RTD_STAGE / RTD_STAGE_AS must never appear
                          lexically inside the arguments of a launch
                          (parallel_for, parallel_for_accumulate,
                          rt::parallel_launch), i.e. in a loop body: a
                          per-index fault would fire on the pool workers
                          once per index instead of once per launch, and a
                          per-worker span would hammer the thread rings from
                          inside the hot launch and skew the very latencies
                          it reports.  Stages belong at serial boundaries
                          only.
  stage-site-registry     Every stage name used in code is in the canonical
                          all_sites() table (src/common/stage.cpp), every
                          canonical name is used at least once, and the table
                          stays sorted (its comment promises it).
  stage-site-docs         Every canonical stage appears in the
                          docs/ARCHITECTURE.md stage table and in the chaos
                          soak's coverage dispatch (tests/test_chaos.cpp), so
                          new stages cannot land undocumented or untested.
  thread-local-header     No `static thread_local` in headers: names
                          referenced from inside a launch body resolve
                          to the EXECUTING thread's instance, not the
                          launching thread's (the PR 6 parallel_launch trap).
                          A deliberate per-thread arena carries a waiver:
                          `lint:allow(static-thread-local): <reason>` on the
                          same or the preceding line.
  header-self-contained   Every header under src/ compiles standalone (a
                          generated one-include TU, -fsyntax-only), so no
                          header depends on its includer's include order.
  ambient-threads         Under src/, no OpenMP name at all (`#pragma omp`,
                          `omp_*`, <omp.h>): every launch runs on the worker
                          pool in common/parallel.hpp.  ThreadCountGuard
                          appears only in that header, which declares it:
                          every launch takes its thread count as an
                          argument, and a guard anywhere else would bring
                          back a second carrier of the same decision.
  stale-suppression       Every entry in .tsan-suppressions carries a
                          `# lint:covers <regex>` marker naming the source
                          construct it suppresses for; entries whose regex no
                          longer matches anything under src/ are dead weight
                          hiding future real races and are flagged.

Usage:
  scripts/lint_invariants.py [--repo DIR] [--cxx BIN] [--skip-compile]
  scripts/lint_invariants.py --self-test   # seeded-violation fixtures
  scripts/lint_invariants.py --list-rules

Exit status: 0 clean, 1 violations (or a failed self-test), 2 bad usage.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

STAGE_RE = re.compile(r"RTD_STAGE(?:_AS\s*\(\s*\w+\s*,|\s*\()\s*\"([^\"]+)\"")
LAUNCH_CALL_RE = re.compile(
    r"\b(?:parallel_for|parallel_for_accumulate|parallel_launch)\s*\(")
THREAD_LOCAL_RE = re.compile(r"\bstatic\s+thread_local\b|\bthread_local\s+static\b")
THREAD_LOCAL_WAIVER_RE = re.compile(r"lint:allow\(static-thread-local\):\s*\S")
COVERS_RE = re.compile(r"^#\s*lint:covers\s+(\S.*)$")
OPENMP_RE = re.compile(
    r"^\s*#\s*pragma\s+omp\b|\bomp_\w+|\bomp\.h\b", re.MULTILINE)
GUARD_RE = re.compile(r"\bThreadCountGuard\b")
# The one file that may name ThreadCountGuard (src/-relative).
GUARD_ALLOWED = "common/parallel.hpp"


@dataclass
class Violation:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.rule}: {self.path}:{self.line}: {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving offsets and
    newlines, so brace/paren scanning and token searches cannot be fooled by
    `"{"` in a string or `RTD_STAGE` in a comment."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if text[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def source_files(repo: Path) -> list[Path]:
    src = repo / "src"
    if not src.is_dir():
        return []
    return sorted(p for p in src.rglob("*") if p.suffix in (".hpp", ".cpp", ".h"))


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# --- rule: stage-in-launch --------------------------------------------------

def call_args_span(clean: str, open_paren: int) -> tuple[int, int]:
    """Offsets of a call's argument list: from the `(` at `open_paren` to its
    matching `)` (or the end of the text)."""
    depth = 0
    for i in range(open_paren, len(clean)):
        if clean[i] == "(":
            depth += 1
        elif clean[i] == ")":
            depth -= 1
            if depth == 0:
                return (open_paren, i + 1)
    return (open_paren, len(clean))


def check_stage_in_launch(repo: Path) -> list[Violation]:
    violations = []
    for path in source_files(repo):
        text = path.read_text(encoding="utf-8", errors="replace")
        if "RTD_STAGE" not in text:
            continue
        clean = strip_comments_and_strings(text)
        rel = str(path.relative_to(repo))
        for m in LAUNCH_CALL_RE.finditer(clean):
            lo, hi = call_args_span(clean, m.end() - 1)
            for st in re.finditer(r"RTD_STAGE(?:_AS)?\b", clean[lo:hi]):
                violations.append(Violation(
                    "stage-in-launch", rel, line_of(clean, lo + st.start()),
                    "stage inside a launch body (launch at line "
                    f"{line_of(clean, m.start())}); a fault would fire and a "
                    "span open once per index on the pool workers, and the "
                    "span would skew the latencies it reports — move the "
                    "stage to the serial boundary before the launch"))
    return violations


# --- rules: stage-site-registry / stage-site-docs ----------------------------

def canonical_sites(repo: Path) -> tuple[list[str], Path | None, int]:
    """Stage names from the kSites initializer in src/common/stage.cpp, with
    the file and the table's first line (None when the table is not part of
    this tree, e.g. minimal lint fixtures)."""
    reg = repo / "src" / "common" / "stage.cpp"
    if not reg.is_file():
        return ([], None, 0)
    text = reg.read_text(encoding="utf-8", errors="replace")
    m = re.search(r"kSites\s*=\s*\{(.*?)\};", text, re.DOTALL)
    if not m:
        return ([], reg, 0)
    names = re.findall(r"\"([^\"]+)\"", m.group(1))
    return (names, reg, line_of(text, m.start()))


def used_sites(repo: Path) -> dict[str, tuple[str, int]]:
    """stage name -> first (file, line) using it, excluding the facility's
    own files (the macro definitions and the canonical table)."""
    uses: dict[str, tuple[str, int]] = {}
    for path in source_files(repo):
        if path.name in ("stage.hpp", "stage.cpp"):
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for m in STAGE_RE.finditer(text):
            uses.setdefault(m.group(1),
                            (str(path.relative_to(repo)), line_of(text, m.start())))
    return uses


def check_stage_sites(repo: Path) -> list[Violation]:
    sites, reg, reg_line = canonical_sites(repo)
    if reg is None:
        return []
    violations = []
    rel_reg = str(reg.relative_to(repo))
    if sites != sorted(sites):
        violations.append(Violation(
            "stage-site-registry", rel_reg, reg_line,
            "all_sites() table is not sorted (its comment promises it is; "
            "the chaos soak and the docs table rely on stable order)"))
    uses = used_sites(repo)
    for name, (path, line) in sorted(uses.items()):
        if name not in sites:
            violations.append(Violation(
                "stage-site-registry", path, line,
                f"stage '{name}' is not in the canonical all_sites() table "
                f"({rel_reg}) — fault arming would reject it, the chaos soak "
                "would never exercise it and the docs would never list it"))
    for name in sites:
        if name not in uses:
            violations.append(Violation(
                "stage-site-registry", rel_reg, reg_line,
                f"canonical stage '{name}' has no RTD_STAGE use in src/ "
                "— remove it or wire the stage"))

    docs = repo / "docs" / "ARCHITECTURE.md"
    chaos = repo / "tests" / "test_chaos.cpp"
    for target, label in ((docs, "the docs/ARCHITECTURE.md stage table"),
                          (chaos, "the chaos-soak coverage dispatch "
                                  "(tests/test_chaos.cpp)")):
        if not target.is_file():
            if sites:
                violations.append(Violation(
                    "stage-site-docs", rel_reg, reg_line,
                    f"cannot check {label}: {target.relative_to(repo)} "
                    "does not exist"))
            continue
        text = target.read_text(encoding="utf-8", errors="replace")
        for name in sites:
            if name not in text:
                violations.append(Violation(
                    "stage-site-docs", str(target.relative_to(repo)), 1,
                    f"canonical stage '{name}' is missing from {label}"))
    return violations


# --- rule: thread-local-header ----------------------------------------------

def check_thread_local_headers(repo: Path) -> list[Violation]:
    violations = []
    for path in source_files(repo):
        if path.suffix not in (".hpp", ".h"):
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        lines = text.splitlines()  # raw: waiver markers live in comments
        code_lines = strip_comments_and_strings(text).splitlines()
        for i, code in enumerate(code_lines):
            if not THREAD_LOCAL_RE.search(code):
                continue
            here = THREAD_LOCAL_WAIVER_RE.search(lines[i])
            above = i > 0 and THREAD_LOCAL_WAIVER_RE.search(lines[i - 1])
            if here or above:
                continue
            violations.append(Violation(
                "thread-local-header", str(path.relative_to(repo)), i + 1,
                "`static thread_local` in a header: inside a launch body "
                "this resolves to the EXECUTING thread's instance, "
                "not the launcher's (the rt/parallel_launch.hpp trap).  If "
                "the per-thread lifetime is genuinely intended, waive with "
                "`// lint:allow(static-thread-local): <reason>`"))
    return violations


# --- rule: ambient-threads ---------------------------------------------------

def check_ambient_threads(repo: Path) -> list[Violation]:
    violations = []
    src = repo / "src"
    for path in source_files(repo):
        text = path.read_text(encoding="utf-8", errors="replace")
        clean = strip_comments_and_strings(text)
        rel = str(path.relative_to(repo))
        for m in OPENMP_RE.finditer(clean):
            violations.append(Violation(
                "ambient-threads", rel, line_of(clean, m.start()),
                f"'{m.group(0).strip()}': OpenMP under src/ — launch on the "
                "worker pool (parallel_for & co. in common/parallel.hpp)"))
        if path.relative_to(src).as_posix() == GUARD_ALLOWED:
            continue
        for m in GUARD_RE.finditer(clean):
            violations.append(Violation(
                "ambient-threads", rel, line_of(clean, m.start()),
                f"'{m.group(0)}' outside {GUARD_ALLOWED}: pass the launch "
                "its thread count (parallel_for & co., radix_sort_pairs) "
                "instead of changing the caller's setting"))
    return violations


# --- rule: header-self-contained ---------------------------------------------

def find_cxx(explicit: str | None) -> str | None:
    candidates = [explicit, os.environ.get("CXX"), "c++", "g++", "clang++"]
    for c in candidates:
        if c and shutil.which(c):
            return c
    return None


def check_headers_self_contained(repo: Path, cxx: str | None) -> list[Violation]:
    src = repo / "src"
    headers = [p for p in source_files(repo) if p.suffix in (".hpp", ".h")]
    if not headers:
        return []
    compiler = find_cxx(cxx)
    if compiler is None:
        return [Violation(
            "header-self-contained", "src", 0,
            "no C++ compiler found (tried --cxx, $CXX, c++, g++, clang++)")]

    def probe(tmp: Path, index: int, header: Path) -> Violation | None:
        # One generated TU per header, so the probes can run side by side.
        tu = tmp / f"lint_tu_{index}.cpp"
        tu.write_text(f'#include "{header.relative_to(src).as_posix()}"\n')
        proc = subprocess.run(
            [compiler, "-std=c++20", "-fsyntax-only",
             "-I", str(src), str(tu)],
            capture_output=True, text=True)
        if proc.returncode == 0:
            return None
        first_error = next(
            (l for l in proc.stderr.splitlines() if "error" in l),
            proc.stderr.strip().splitlines()[0] if proc.stderr.strip()
            else "compiler failed")
        return Violation(
            "header-self-contained", str(header.relative_to(repo)), 1,
            "header does not compile standalone "
            f"(generated TU, {compiler} -fsyntax-only): {first_error}")

    with tempfile.TemporaryDirectory(prefix="rtd_lint_") as tmp:
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            results = pool.map(probe, [Path(tmp)] * len(headers),
                               range(len(headers)), headers)
            violations = [v for v in results if v is not None]
    return sorted(violations, key=lambda v: v.path)


# --- rule: stale-suppression --------------------------------------------------

def check_suppressions(repo: Path) -> list[Violation]:
    supp = repo / ".tsan-suppressions"
    if not supp.is_file():
        return []
    violations = []
    source_cache: list[str] | None = None

    def tree_matches(pattern: str) -> bool:
        nonlocal source_cache
        if source_cache is None:
            source_cache = [
                p.read_text(encoding="utf-8", errors="replace")
                for p in source_files(repo)]
        try:
            rx = re.compile(pattern)
        except re.error:
            return False
        return any(rx.search(text) for text in source_cache)

    covers: str | None = None
    for i, raw in enumerate(supp.read_text(encoding="utf-8").splitlines()):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = COVERS_RE.match(line)
            if m:
                covers = m.group(1).strip()
            continue
        # A suppression entry: type:pattern
        rel = str(supp.relative_to(repo))
        if covers is None:
            violations.append(Violation(
                "stale-suppression", rel, i + 1,
                f"entry '{line}' has no preceding '# lint:covers <regex>' "
                "marker naming the source construct it suppresses for — "
                "unmapped suppressions rot silently"))
        elif not tree_matches(covers):
            violations.append(Violation(
                "stale-suppression", rel, i + 1,
                f"entry '{line}' is stale: its lint:covers regex "
                f"'{covers}' no longer matches anything under src/ — the "
                "suppressed construct is gone, drop the entry"))
        covers = None  # each entry needs its own marker
    return violations


# --- driver -------------------------------------------------------------------

RULES = [
    ("stage-in-launch", lambda repo, args: check_stage_in_launch(repo)),
    ("stage-site-registry / stage-site-docs",
     lambda repo, args: check_stage_sites(repo)),
    ("thread-local-header", lambda repo, args: check_thread_local_headers(repo)),
    ("ambient-threads", lambda repo, args: check_ambient_threads(repo)),
    ("header-self-contained",
     lambda repo, args: [] if args.skip_compile
     else check_headers_self_contained(repo, args.cxx)),
    ("stale-suppression", lambda repo, args: check_suppressions(repo)),
]


def run_rules(repo: Path, args: argparse.Namespace) -> list[Violation]:
    violations: list[Violation] = []
    for _, rule in RULES:
        violations.extend(rule(repo, args))
    return violations


def self_test(args: argparse.Namespace) -> int:
    """Each fixture under tests/lint_fixtures/ is a miniature repo with one
    seeded violation; expect.txt holds a substring the linter must emit.
    The `clean` fixture (if present) must pass instead."""
    repo = Path(args.repo).resolve()
    fixtures_dir = repo / "tests" / "lint_fixtures"
    if not fixtures_dir.is_dir():
        print(f"self-test: no fixtures at {fixtures_dir}", file=sys.stderr)
        return 2
    failures = 0
    for fixture in sorted(p for p in fixtures_dir.iterdir() if p.is_dir()):
        violations = run_rules(fixture, args)
        rendered = "\n".join(v.render() for v in violations)
        expect_file = fixture / "expect.txt"
        if not expect_file.is_file():  # a clean fixture: must pass
            if violations:
                print(f"SELF-TEST FAIL {fixture.name}: expected clean, got:\n"
                      f"{rendered}")
                failures += 1
            else:
                print(f"self-test ok   {fixture.name} (clean)")
            continue
        expected = [l for l in expect_file.read_text().splitlines()
                    if l.strip()]
        missing = [e for e in expected if e not in rendered]
        if not violations or missing:
            print(f"SELF-TEST FAIL {fixture.name}: expected substring(s) "
                  f"{missing or expected} in output:\n{rendered or '(clean)'}")
            failures += 1
        else:
            print(f"self-test ok   {fixture.name}")
    if failures:
        print(f"self-test: {failures} fixture(s) failed")
        return 1
    print("self-test: all fixtures behaved")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="RT-DBSCAN repo-invariant linter")
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parent.parent),
                        help="repo root (default: the script's parent repo)")
    parser.add_argument("--cxx", default=None,
                        help="compiler for the header self-containment probe")
    parser.add_argument("--skip-compile", action="store_true",
                        help="skip the header-self-contained rule")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation fixtures instead")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for name, _ in RULES:
            print(name)
        return 0
    if args.self_test:
        return self_test(args)

    repo = Path(args.repo).resolve()
    if not (repo / "src").is_dir():
        print(f"error: {repo} has no src/ directory", file=sys.stderr)
        return 2
    violations = run_rules(repo, args)
    for v in violations:
        print(v.render())
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI for the dlb contract analyzer.

    python3 tools/dlb_analyzer --root src              # analyze the tree
    python3 tools/dlb_analyzer --self-test tests/analyzer_fixtures

Exit codes: 0 clean, 1 findings (or self-test mismatch), 2 usage error, so
tools/check.sh can aggregate the analysis and the self-test.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import frontend_lite
from model import SOURCE_SUFFIXES
from rules import apply_allows, run_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def analyze(args) -> int:
    base = Path(args.base).resolve()
    root = (base / args.root).resolve()
    if not root.is_dir():
        print(f"error: no such directory: {root}", file=sys.stderr)
        return 2
    facts = [frontend_lite.parse_file(p, p.relative_to(base).as_posix())
             for p in sorted(root.rglob("*"))
             if p.suffix in SOURCE_SUFFIXES and p.is_file()]
    findings = apply_allows(run_rules(facts), facts)
    for f in findings:
        print(f)
    rule_counts = Counter(f.rule for f in findings)
    summary = ", ".join(f"{r}: {n}" for r, n in sorted(rule_counts.items()))
    print(f"contract analyzer: {len(findings)} finding(s)"
          + (f" ({summary})" if summary else "")
          + f" across {len(facts)} file(s)", file=sys.stderr)
    return 1 if findings else 0


def self_test(args) -> int:
    """Runs each fixture through the full pipeline and compares the multiset
    of reported rules against its `// analyze-expect: <rule>` comments."""
    base = Path(args.base).resolve()
    fixtures = (base / args.self_test).resolve()
    if not fixtures.is_dir():
        print(f"error: no such fixture directory: {fixtures}",
              file=sys.stderr)
        return 2
    paths = sorted(fixtures.glob("*.cpp"))
    if not paths:
        print(f"error: no fixtures in {fixtures}", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        facts = [frontend_lite.parse_file(path, path.name)]
        findings = apply_allows(run_rules(facts), facts)
        expected = Counter()
        for line in path.read_text(encoding="utf-8").splitlines():
            if "analyze-expect:" in line:
                tag = line.split("analyze-expect:", 1)[1].strip()
                expected[tag] += 1
        actual = Counter(f.rule for f in findings)
        if expected != actual:
            failures += 1
            print(f"SELF-TEST FAIL {path.name}:")
            print(f"  expected: {dict(sorted(expected.items())) or '{}'}")
            print(f"  actual:   {dict(sorted(actual.items())) or '{}'}")
            for f in findings:
                print(f"    {f}")
    print(f"self-test: {len(paths) - failures}/{len(paths)} fixtures passed",
          file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="dlb_analyzer",
        description="contract analyzer: atomic-write, sync-wrapper, "
                    "rng-contract, nondet-reduce, clock, unordered, "
                    "raw-random, ptr-key")
    ap.add_argument("--root", default="src",
                    help="directory to analyze, relative to --base "
                         "(default: src)")
    ap.add_argument("--base", default=str(REPO_ROOT),
                    help="repo root for relative paths (default: the repo "
                         "containing this tool)")
    ap.add_argument("--self-test", metavar="DIR", default=None,
                    help="run the fixture corpus in DIR instead of "
                         "analyzing --root")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test(args)
    return analyze(args)


if __name__ == "__main__":
    sys.exit(main())

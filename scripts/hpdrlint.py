#!/usr/bin/env python
"""hpdrlint CLI — HPDR-Statica static analyzer driver.

Usage:
    PYTHONPATH=src python scripts/hpdrlint.py              # analyze src/repro
    PYTHONPATH=src python scripts/hpdrlint.py path ...     # analyze paths
    ... --packs core,async                                 # subset of packs
    ... --list-rules                                       # rule table by pack
    ... --sarif out.sarif                                  # SARIF 2.1.0 report
    ... --max-seconds 10                                   # perf guard

Exit status: 0 when clean, 1 when any finding is reported (CI gates on
this), 2 on usage errors.  Suppress a deliberate violation inline with
``# hpdrlint: disable=HPL001 — reason`` on the offending line.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.check.lint import format_findings  # noqa: E402
from repro.check.static import (  # noqa: E402
    ALL_PACKS,
    ALL_RULES,
    RULE_PACKS,
    analyze_paths,
    write_sarif,
)


def _usage_error(message: str) -> int:
    print(f"hpdrlint: {message}", file=sys.stderr)
    return 2


def _validate_paths(raw: list[str]) -> list[Path] | int:
    """Resolve CLI path arguments, rejecting anything we cannot lint.

    A non-existent path, a dangling symlink, or a file argument that is
    not ``.py`` is a usage error (exit 2) — silently skipping it would
    report "clean" without analyzing what the caller asked for.
    """
    paths: list[Path] = []
    for arg in raw:
        p = Path(arg)
        if not p.exists():
            if p.is_symlink():
                return _usage_error(
                    f"dangling symlink: {p} -> {p.readlink()}"
                )
            return _usage_error(f"no such path: {p}")
        if p.is_file() and p.suffix != ".py":
            return _usage_error(
                f"not a Python file: {p} (only .py files and "
                f"directories can be analyzed)"
            )
        paths.append(p)
    return paths


def _list_rules() -> None:
    for pack in ALL_PACKS:
        rules = RULE_PACKS[pack]
        print(f"[{pack}]")
        for rule, desc in sorted(rules.items()):
            print(f"  {rule}  {desc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hpdrlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--packs", default=",".join(ALL_PACKS), metavar="P1,P2",
        help=f"comma-separated rule packs (default: all = "
             f"{','.join(ALL_PACKS)})",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table grouped by pack",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="also write a SARIF 2.1.0 report to PATH",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="fail (exit 1) if the analysis takes longer than S seconds",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules()
        return 0

    packs = [p for p in args.packs.split(",") if p]
    unknown = set(packs) - set(RULE_PACKS)
    if unknown:
        return _usage_error(
            f"unknown pack(s) {sorted(unknown)}; choose from "
            f"{sorted(RULE_PACKS)}"
        )

    if args.paths:
        validated = _validate_paths(args.paths)
        if isinstance(validated, int):
            return validated
        paths = validated
    else:
        paths = [REPO_ROOT / "src" / "repro"]

    start = time.perf_counter()
    result = analyze_paths(paths, packs=packs)
    elapsed = time.perf_counter() - start

    for warning in result.warnings:
        print(f"hpdrlint: warning: {warning}", file=sys.stderr)

    if args.sarif:
        rules = {
            rid: desc
            for pack in packs
            for rid, desc in RULE_PACKS[pack].items()
        }
        write_sarif(Path(args.sarif), result.findings, rules, REPO_ROOT)

    status = 0
    if result.findings:
        print(format_findings(result.findings))
        status = 1
    else:
        print(f"hpdrlint: clean [{elapsed:.2f}s]")

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"hpdrlint: analysis took {elapsed:.2f}s "
            f"(budget {args.max_seconds:.2f}s)",
            file=sys.stderr,
        )
        status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro lint`` — the determinism & contract linter.

Examples::

    python -m repro lint                       # lint src/ (default)
    python -m repro lint src tests/test_x.py   # explicit targets
    python -m repro lint --format json         # machine-readable
    python -m repro lint --format sarif        # SARIF 2.1.0 (CI upload)
    python -m repro lint --select DET,ORD      # rule families
    python -m repro lint --list-rules          # catalog + rationale

Every run parses each file once and runs the per-file, project and
whole-program FLOW rules over the same trees.  Exit codes: ``0``
clean, ``1`` findings, ``2`` usage error (unknown rule, missing path,
malformed baseline).  See ``docs/STATIC_ANALYSIS.md`` for the rule
catalog, the suppression policy, and the baseline format.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.baseline import DEFAULT_BASELINE_PATH, load_baseline
from repro.analysis.engine import lint_paths
from repro.analysis.report import (
    render_human,
    render_json,
    render_rule_catalog,
)
from repro.analysis.sarif import render_sarif

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "simlint: AST-based determinism & contract linter for the "
            "transactional-conflict reproduction (DET/ORD/ERR/API/POL/"
            "OBS/PRG rule families, plus whole-program FLOW)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE,...",
        default=None,
        help="only run these rules (full ids like DET001 or family "
        "prefixes like DET)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULE,...",
        default=None,
        help="skip these rules (same syntax as --select)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog with rationales and exit",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings and their justifications",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file accepting known FLOW findings (default: "
        f"{DEFAULT_BASELINE_PATH} when it exists)",
    )
    return parser


def _split(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    return [part.strip().upper() for part in arg.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_catalog())
        return 0

    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE_PATH).is_file():
        baseline_path = DEFAULT_BASELINE_PATH
    try:
        result = lint_paths(
            args.paths,
            select=_split(args.select),
            ignore=_split(args.ignore),
            baseline_entries=(
                load_baseline(baseline_path) if baseline_path else []
            ),
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_human(result))
        if args.show_suppressed and result.suppressed:
            print("suppressed:")
            for sup in result.suppressed:
                reason = f" -- {sup.reason}" if sup.reason else ""
                f = sup.finding
                print(f"  {f.path}:{f.line}: {f.rule}{reason}")
        if result.baselined:
            print("baselined:")
            for b in result.baselined:
                print(
                    f"  {b['path']}:{b['line']}: {b['rule']} -- "
                    f"{b['justification']}"
                )
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

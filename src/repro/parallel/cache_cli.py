"""``repro cache`` — operator verbs for the result cache.

``verify`` checksum-scans every entry in the cache directory and
reports corrupt ones (exit 1 when any are found, so CI can gate on a
clean cache); ``prune`` deletes corrupt and stale entries plus leftover
temp files from interrupted writes.  Both read the same
:func:`repro.parallel.cache.scan_cache_dir` verdicts the runtime cache
uses, so what ``verify`` flags is exactly what ``get_rows`` would
refuse to replay.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.parallel.cache import (
    DEFAULT_CACHE_DIR,
    default_cache_dir,
    scan_cache_dir,
)

__all__ = ["build_cache_parser", "cache_main"]


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="verify or prune the experiment result cache",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("verify", "checksum-scan entries; exit 1 if any are corrupt"),
        ("prune", "delete corrupt/stale entries and leftover temp files"),
    ):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument(
            "--cache-dir",
            type=pathlib.Path,
            default=default_cache_dir(),
            help=f"cache directory to scan (default: {DEFAULT_CACHE_DIR}, "
            "or $REPRO_CACHE_DIR)",
        )
        sp.add_argument(
            "--json",
            action="store_true",
            help="emit one machine-readable JSON object instead of prose",
        )
    return parser


def _tally(reports) -> dict[str, int]:
    tally = {"ok": 0, "corrupt": 0, "stale": 0, "missing": 0}
    for report in reports:
        tally[report.status] = tally.get(report.status, 0) + 1
    return tally


def cache_main(argv: list[str] | None = None) -> int:
    args = build_cache_parser().parse_args(argv)
    reports = scan_cache_dir(args.cache_dir)
    tally = _tally(reports)
    bad = [r for r in reports if r.status in ("corrupt", "stale")]

    if args.verb == "verify":
        if args.json:
            print(
                json.dumps(
                    {
                        "cache_dir": str(args.cache_dir),
                        "entries": len(reports),
                        **tally,
                        "bad_entries": [
                            {
                                "path": str(r.path),
                                "status": r.status,
                                "reason": r.reason,
                            }
                            for r in bad
                        ],
                    },
                    sort_keys=True,
                )
            )
        else:
            for report in bad:
                print(f"{report.status}: {report.path} ({report.reason})")
            print(
                f"cache verify: {len(reports)} entries, {tally['ok']} ok, "
                f"{tally['corrupt']} corrupt, {tally['stale']} stale"
            )
        return 1 if tally["corrupt"] else 0

    # prune: delete what verify would flag, plus interrupted-write litter
    removed = []
    for report in bad:
        try:
            report.path.unlink()
            removed.append(report)
        except OSError as exc:
            print(f"could not remove {report.path}: {exc}", file=sys.stderr)
    tmp_swept = 0
    if args.cache_dir.is_dir():
        for tmp in sorted(args.cache_dir.glob("*.tmp*")):
            try:
                tmp.unlink()
                tmp_swept += 1
            except OSError:
                pass
    if args.json:
        print(
            json.dumps(
                {
                    "cache_dir": str(args.cache_dir),
                    "entries": len(reports),
                    "removed": [
                        {
                            "path": str(r.path),
                            "status": r.status,
                            "reason": r.reason,
                        }
                        for r in removed
                    ],
                    "tmp_swept": tmp_swept,
                },
                sort_keys=True,
            )
        )
    else:
        for report in removed:
            print(f"removed {report.status}: {report.path} ({report.reason})")
        print(
            f"cache prune: removed {len(removed)} of {len(reports)} "
            f"entries, swept {tmp_swept} temp files"
        )
    return 0

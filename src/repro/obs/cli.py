"""``python -m repro trace <exp>`` — export one experiment's events.

Runs a single experiment under a fresh observability capture
(:func:`repro.obs.capture`) and writes the structured event stream as
canonical JSONL, optionally alongside a Chrome ``trace_event`` file
(load in ``about:tracing`` or Perfetto) and the experiment's metrics
snapshot.  The result cache is bypassed: a cache hit replays rows
without re-simulating, which would leave the trace empty.

Examples::

    python -m repro trace fig2a --quick --seed 3
    python -m repro trace fig3_stack --quick --out fig3.jsonl --chrome fig3.json
    python -m repro trace fig2a --quick --metrics fig2a-metrics.json

The event schema is documented in docs/OBSERVABILITY.md; the JSONL
bytes are deterministic for a fixed (experiment, quick, seed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Run one experiment under an observability capture and "
            "export its structured event stream (docs/OBSERVABILITY.md)"
        ),
    )
    parser.add_argument(
        "experiment", help="experiment id; see python -m repro --list"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced trial counts / horizons (CI mode)",
    )
    parser.add_argument("--seed", type=int, default=None, help="root RNG seed")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="JSONL destination (default <experiment>.trace.jsonl)",
    )
    parser.add_argument(
        "--chrome",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also write Chrome trace_event JSON (about:tracing, Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also write the experiment's metrics snapshot as JSON",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError
    from repro.experiments import EXPERIMENTS, run_experiment
    from repro.obs import capture, chrome_trace, write_jsonl

    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"use python -m repro --list",
            file=sys.stderr,
        )
        return 2
    out = args.out or pathlib.Path(f"{args.experiment}.trace.jsonl")
    try:
        with capture() as cap:
            run_experiment(
                args.experiment, quick=args.quick, seed=args.seed, cache=None
            )
    except ReproError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    count = write_jsonl(cap.events, out)
    print(f"[{args.experiment}: {count} events -> {out}]")
    kinds: dict[str, int] = {}
    for event in cap.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    for kind, n in sorted(kinds.items()):
        print(f"  {kind:20s} {n}")
    if args.chrome is not None:
        args.chrome.write_text(
            json.dumps(chrome_trace(cap.events), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"[chrome trace -> {args.chrome}]")
    if args.metrics is not None:
        args.metrics.write_text(
            json.dumps(cap.snapshot(), indent=2, sort_keys=True) + "\n"
        )
        print(f"[metrics snapshot -> {args.metrics}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

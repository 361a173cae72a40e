"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload htm-stack --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs untraced and traced passes in pairs and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every correctness gate passed, 1 when one failed,
2 when the benchmark cannot run here (no source tree, bad arguments).
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import benchlib  # noqa: E402

#: per-layer metrics every workload reports whatever layers it touches
COMMON_LAYER_METRICS = ("trace_overhead_frac", "item_samples")


def _spec() -> dict:
    return json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(benchlib.WORKLOADS)
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load(workload: str):
    """Import the workload module against this checkout's ``src``."""
    if not (benchlib.SRC / "repro" / "__init__.py").is_file():
        _die(f"no source tree at {benchlib.SRC}; nothing to benchmark")
    sys.path.insert(0, str(benchlib.SRC))
    module = importlib.import_module(benchlib.WORKLOADS[workload])
    import repro

    if benchlib.SRC not in pathlib.Path(repro.__file__).resolve().parents:
        _die(f"imported repro from {repro.__file__}, not from {benchlib.SRC}")
    return module


def _complete(metrics: dict, module, trace: bool, setup: dict) -> dict:
    """Check the workload's metrics against ``BENCHMARK.json``; fill in
    the layers this workload bypasses with 0.  A metric of its own
    layers that is missing, or one with the wrong unit, is a bug here."""
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in metrics:
            value, got = metrics[name]
        elif name in setup:
            value, got = setup[name], unit
        elif trace and not name.startswith(module.LAYERS + COMMON_LAYER_METRICS):
            value, got = 0, unit  # bypassed layer: measured as no work
        else:
            raise RuntimeError(f"workload did not report {name}")
        if got != unit:
            raise RuntimeError(f"{name}: unit {got!r}, BENCHMARK.json says {unit!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def _check_record(workload, seed, trace, tiny, counts, fingerprint) -> list[str]:
    """Compare this run's counts with the last run of the same seed in
    this checkout (same code: they must be equal) and with the committed
    reference (differs only if the model changed)."""
    errors = []
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    path = benchlib.STATE / "counts" / f"{tag}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        same_code = all(
            previous["fingerprint"][key] == fingerprint[key]
            for key in ("src_sha256", "bench_sha256")
        )
        if same_code and previous["counts"] != counts:
            errors.append(f"counts differ from an earlier {tag} run of this code")
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"fingerprint": fingerprint, "counts": counts}
    path.write_text(json.dumps(record, sort_keys=True))

    reference_path = pathlib.Path(__file__).with_name("counts_reference.json")
    reference = json.loads(reference_path.read_text())
    recorded = reference.get(f"{workload} trace={int(trace)}", {}).get(str(seed))
    if tiny or recorded is None:
        verdict = "absent"
    else:
        verdict = "match" if recorded == counts else "differs"
    print(f"reference counts: {verdict}")
    return errors


def main(argv=None, *, tiny: bool = False) -> int:
    args = _parse(argv)
    module = _load(args.workload)
    trace = bool(args.trace)
    setup = benchlib.setup_seconds(args.workload, args.seed)
    outcome = module.run(args.seed, args.seconds, trace, tiny=tiny)
    metrics = dict(outcome.metrics)
    if not trace:
        metrics["setup_s"] = (setup["setup_s"], "s")
        metrics["ok_frac"] = (1.0 - outcome.failed / outcome.attempted, "frac")
    errors = list(outcome.errors)
    fingerprint = benchlib.run_fingerprint(args.seed, args.workload)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    if outcome.metrics:
        metrics = _complete(metrics, module, trace, setup)
        counts = dict(outcome.counts)
        counts.update(
            (name, m["value"]) for name, m in metrics.items() if m["unit"] == "count"
        )
        errors += _check_record(
            args.workload, args.seed, trace, tiny, counts, fingerprint
        )
        for name, m in metrics.items():
            print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    else:  # the workload failed before it could measure anything
        metrics = {}
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    correct = not errors
    failed = max(outcome.failed, 0 if correct else 1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""pipeline-mc: the non-HTM experiments through the supervised executor.

A pass runs the experiment set twice through one ``ParallelExecutor``
against one result-cache directory: first against the empty directory
(cold: compute plus cache writes), then against the same directory
(warm: cache reads only).  Every pass starts from a new empty directory.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.experiments.registry import run_experiment
from repro.parallel import ParallelExecutor, ResultCache, source_fingerprint

from benchlib import STATE, Outcome, Spans, digest, median, patched, quantile, repeat

#: prefixes of the per-layer metrics this workload measures; the
#: others are layers it bypasses
LAYERS = ("experiments.", "parallel.")

EXPERIMENTS = (
    "fig2a",
    "fig2b",
    "fig2c",
    "tab_ratios",
    "tab_abort_prob",
    "cor1",
    "cor2",
    "ext_regimes",
    "ext_chains",
    "ext_throughput",
    "robustness_est",
    "abl_delay_cap",
    "abl_hybrid",
    "abl_mean_error",
    "abl_backoff",
)
#: never more workers than cores, so the pass measures the executor and
#: not the host's time slicing
JOBS = max(1, min(2, os.cpu_count() or 1))


def _executor(seed: int, quick: bool, cache_dir: str, fingerprint: str, collect=False):
    return ParallelExecutor(
        JOBS,
        quick=quick,
        seed=seed,
        cache_dir=cache_dir,
        fingerprint=fingerprint,
        collect=collect,
    )


def setup(seed: int) -> dict[str, float]:
    start = time.perf_counter()
    fingerprint = source_fingerprint()
    hashed = time.perf_counter()
    _executor(seed, False, str(STATE / "unused"), fingerprint)
    return {
        "build_s": time.perf_counter() - start,
        "parallel.fingerprint_s": hashed - start,
    }


def _rows(outcomes) -> dict[str, str]:
    return {
        o.exp_id: json.dumps(o.result.rows, sort_keys=True)
        for o in outcomes
        if o.ok
    }


def _parallel_pass(seed: int, quick: bool, fingerprint: str, collect: bool) -> dict:
    STATE.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=STATE)
    try:
        executor = _executor(seed, quick, cache_dir, fingerprint, collect)
        start = time.perf_counter()
        cold = executor.run(list(EXPERIMENTS))
        cold_done = time.perf_counter()
        reexecutions = executor.stats.task_reexecutions
        warm = executor.run(list(EXPERIMENTS))
        warm_done = time.perf_counter()
        reexecutions += executor.stats.task_reexecutions
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    errors = [
        f"{o.exp_id}: {o.status}: {o.error_type}: {o.error}"
        for o in cold + warm
        if not o.ok
    ]
    cold_rows, warm_rows = _rows(cold), _rows(warm)
    errors += [
        f"{exp_id}: warm rows differ from cold rows"
        for exp_id in cold_rows
        if warm_rows.get(exp_id, cold_rows[exp_id]) != cold_rows[exp_id]
    ]
    errors += [
        f"{o.exp_id}: warm run missed the cache"
        for o in warm
        if o.ok and not o.result.cached
    ]

    def counter(outcomes, name):
        return sum(
            (o.metrics or {}).get("counters", {}).get(name, 0) for o in outcomes
        )

    return {
        "cold": cold_done - start,
        "warm": warm_done - cold_done,
        "items": sorted(o.elapsed_s for o in cold),
        "busy": sum(o.elapsed_s for o in cold),
        "reexecutions": reexecutions,
        "hits": counter(cold + warm, "cache_hits"),
        "misses": counter(cold + warm, "cache_misses"),
        "attempted": len(cold) + len(warm),
        "errors": errors,
        "rows": cold_rows,
        "counts": {exp_id: digest(rows) for exp_id, rows in cold_rows.items()},
    }


def _serial_pass(seed: int, quick: bool, fingerprint: str) -> dict:
    """In-process, one experiment at a time: cold with spans around each
    experiment and the cache writes, then warm with spans around the
    cache reads."""
    cold, warm = Spans(), Spans()
    STATE.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="serial-", dir=STATE)
    rows, errors = {}, []
    try:
        cache = ResultCache(cache_dir, fingerprint=fingerprint)
        for spans in (cold, warm):
            targets = [
                (ResultCache, "put_rows", "parallel.cache.put"),
                (ResultCache, "get_rows", "parallel.cache.get"),
            ]
            with patched(spans, targets):
                for exp_id in EXPERIMENTS:
                    try:
                        result = spans.call(
                            f"experiments.{exp_id}",
                            run_experiment,
                            exp_id,
                            quick=quick,
                            seed=seed,
                            cache=cache,
                        )
                    except Exception as exc:  # reported, not fatal
                        name = type(exc).__name__
                        errors.append(f"{exp_id} (serial): {name}: {exc}")
                        continue
                    text = json.dumps(result.rows, sort_keys=True)
                    if rows.setdefault(exp_id, text) != text:
                        errors.append(f"{exp_id} (serial): warm rows differ")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"cold": cold, "warm": warm, "rows": rows, "errors": errors}


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    quick = tiny  # the tiny size runs the experiments in quick mode
    fingerprint = source_fingerprint()
    plain, traced, serial = [], [], []

    def one_pass() -> None:
        plain.append(_parallel_pass(seed, quick, fingerprint, collect=False))
        if trace:
            traced.append(_parallel_pass(seed, quick, fingerprint, collect=True))
            serial.append(_serial_pass(seed, quick, fingerprint))

    rss_mb = repeat(seconds, one_pass)

    passes = plain + traced
    errors = [e for p in passes for e in p["errors"]]
    errors += [e for s in serial for e in s["errors"]]
    counts = plain[0]["counts"]
    for i, p in enumerate(passes[1:], start=1):
        if p["counts"] != counts:
            errors.append(f"pass {i} rows differ from pass 0")
    for s in serial:
        errors += [
            f"{exp_id}: serial rows differ from jobs={JOBS} rows"
            for exp_id, text in s["rows"].items()
            if plain[0]["rows"].get(exp_id, text) != text
        ]
    attempted = sum(p["attempted"] for p in passes)
    attempted += 2 * len(EXPERIMENTS) * len(serial)
    failed = min(len(errors), attempted)

    if not trace:
        metrics = {
            "peak_rss_mb": (rss_mb, "MB"),
            "wall_s": (median(p["cold"] for p in plain), "s"),
            "work_per_s": (
                median(2 * len(EXPERIMENTS) / (p["cold"] + p["warm"]) for p in plain),
                "1/s",
            ),
            "item_p50_ms": (_item_ms(plain, 0.50), "ms"),
            "item_p99_ms": (_item_ms(plain, 0.99), "ms"),
        }
    else:
        metrics = _layer_metrics(plain, traced, serial)
    return Outcome(metrics, attempted, failed, errors, counts)


def _item_ms(passes, q: float) -> float:
    return median(quantile(p["items"], q) for p in passes) * 1e3


def _layer_metrics(plain, traced, serial) -> dict:
    cold = median(p["cold"] for p in plain)
    serial_total = median(
        sum(s["cold"].total_s.get(f"experiments.{e}", 0.0) for e in EXPERIMENTS)
        for s in serial
    )
    metrics = {
        "trace_overhead_frac": (
            median(t["cold"] for t in traced) / cold - 1.0,
            "frac",
        ),
        "item_samples": (len(EXPERIMENTS), "count"),
        "parallel.busy_s": (median(p["busy"] for p in plain), "s"),
        "parallel.idle_s": (
            median(JOBS * p["cold"] - p["busy"] for p in plain),
            "s",
        ),
        "parallel.speedup": (serial_total / cold, "x"),
        "parallel.warm_s": (median(p["warm"] for p in plain), "s"),
        "parallel.cache.put_s": (
            median(s["cold"].self_time("parallel.cache.put") for s in serial),
            "s",
        ),
        "parallel.cache.get_s": (
            median(s["warm"].self_time("parallel.cache.get") for s in serial),
            "s",
        ),
        "parallel.cache.hits": (traced[0]["hits"], "count"),
        "parallel.cache.misses": (traced[0]["misses"], "count"),
        "parallel.reexecutions": (
            sum(p["reexecutions"] for p in plain + traced),
            "count",
        ),
    }
    for exp_id in EXPERIMENTS:
        metrics[f"experiments.{exp_id}_s"] = (
            median(s["cold"].self_time(f"experiments.{exp_id}") for s in serial),
            "s",
        )
    return metrics

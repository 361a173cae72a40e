"""serve-replay: a closed loop of 8 clients on the decision service.

Every client is a coroutine on one event loop in one thread: no OS
threads, no sockets.  A client sends its next ``ConflictRequest`` or
``CommitReport`` only after ``DecisionService.submit`` has resolved the
previous one, because a conflicting transaction waits for its answer.
Events come from ``loadgen.generate`` and are dealt round-robin to the
clients before the timed window opens.
"""

from __future__ import annotations

import asyncio
import hashlib
import time

from repro.htm.conflict_policy import RegimeAdaptiveDelay
from repro.serve import service as service_mod
from repro.serve.loadgen import default_config, generate
from repro.serve.replay import run_replay
from repro.serve.service import ConflictRequest, DecisionService

from benchlib import Outcome, Spans, median, patched, quantile, repeat

#: prefixes of the per-layer metrics this workload measures; the
#: others are layers it bypasses
LAYERS = ("serve.",)

CLIENTS = 8
CONFLICTS = 60_000
TINY_CONFLICTS = 2_000
#: a pass that has not finished by then is a hang, reported as failed
PASS_TIMEOUT_S = 120.0


def config(tiny: bool = False):
    return default_config(quick=True).scaled(TINY_CONFLICTS if tiny else CONFLICTS)


def setup(seed: int) -> dict[str, float]:
    async def build() -> float:
        start = time.perf_counter()
        service = DecisionService(seed=seed)
        await service.start()
        elapsed = time.perf_counter() - start
        await service.stop()
        return elapsed

    return {"build_s": asyncio.run(build())}


async def _client(service, events, conflict_lat, commit_lat) -> None:
    clock = time.perf_counter
    for event in events:
        start = clock()
        await service.submit(event)
        elapsed = clock() - start
        if isinstance(event, ConflictRequest):
            conflict_lat.append(elapsed)
        else:
            commit_lat.append(elapsed)


async def _serve(seed: int, events: list) -> dict:
    service = DecisionService(seed=seed)
    await service.start()
    conflict_lat: list[float] = []
    commit_lat: list[float] = []
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _client(service, events[i::CLIENTS], conflict_lat, commit_lat)
            for i in range(CLIENTS)
        )
    )
    wall = time.perf_counter() - start
    await service.stop()
    return {
        "wall": wall,
        "conflict_lat": sorted(conflict_lat),
        "commit_lat": commit_lat,
        "counts": {
            "conflicts": service.conflicts,
            "commits": service.commits,
            "grants": service.grants,
            "aborts": service.aborts,
            "regime_switches": service.regime_switches,
            "log_sha256": _log_sha256(service.decision_log),
        },
    }


def _log_sha256(lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _run_pass(seed: int, events: list) -> dict:
    try:
        result = asyncio.run(asyncio.wait_for(_serve(seed, events), PASS_TIMEOUT_S))
    except Exception as exc:  # a failed pass is reported, not fatal
        return {"submits": len(events), "error": f"{type(exc).__name__}: {exc}"}
    result.update(submits=len(events), error=None)
    counts = result["counts"]
    if counts["grants"] + counts["aborts"] != counts["conflicts"]:
        result["error"] = f"grants + aborts != conflicts: {counts}"
    return result


def _traced_pass(seed: int, events: list) -> tuple[dict, Spans]:
    spans = Spans()
    targets = [
        (RegimeAdaptiveDelay, "decide", "serve.policy_decide"),
        (RegimeAdaptiveDelay, "observe_commit", "serve.estimator_update"),
        (service_mod, "decision_line", "serve.log_encode"),
        (DecisionService, "_decide", "serve.decide"),
    ]
    with patched(spans, targets):
        result = _run_pass(seed, events)
    return result, spans


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    cfg = config(tiny)
    start = time.perf_counter()
    events = list(generate(seed, cfg))
    loadgen_s = time.perf_counter() - start
    plain, traced, spans_list = [], [], []

    def one_pass() -> None:
        plain.append(_run_pass(seed, events))
        if trace:
            result, spans = _traced_pass(seed, events)
            traced.append(result)
            spans_list.append(spans)

    rss_mb = repeat(seconds, one_pass)

    passes = plain + traced
    errors = [p["error"] for p in passes if p["error"]]
    attempted = sum(p["submits"] for p in passes)
    failed = sum(p["submits"] for p in passes if p["error"])
    if errors:
        return Outcome({}, attempted, failed, errors)

    counts = plain[0]["counts"]
    for i, p in enumerate(passes[1:], start=1):
        if p["counts"] != counts:
            errors.append(f"pass {i} counts differ from pass 0: {p['counts']}")
            failed += p["submits"]
    reference = run_replay(seed, cfg, clients=CLIENTS).decision_log_sha256()
    if reference != counts["log_sha256"]:
        errors.append(
            f"decision log {counts['log_sha256'][:12]} != "
            f"run_replay's {reference[:12]}"
        )
        failed += plain[0]["submits"]

    if not trace:
        metrics = {
            "peak_rss_mb": (rss_mb, "MB"),
            "wall_s": (median(p["wall"] for p in plain), "s"),
            "work_per_s": (
                median(counts["conflicts"] / p["wall"] for p in plain),
                "1/s",
            ),
            "item_p50_ms": (
                median(quantile(p["conflict_lat"], 0.50) for p in plain) * 1e3,
                "ms",
            ),
            "item_p99_ms": (
                median(quantile(p["conflict_lat"], 0.99) for p in plain) * 1e3,
                "ms",
            ),
        }
    else:
        metrics = _layer_metrics(plain, traced, spans_list, counts)
        metrics["serve.loadgen_s"] = (loadgen_s, "s")
    return Outcome(metrics, attempted, failed, errors, counts)


def _layer_metrics(plain, traced, spans_list, counts) -> dict:
    def med(fn):
        return median(fn(p, s) for p, s in zip(traced, spans_list))

    def wait_s(p, spans):
        client = sum(p["conflict_lat"]) + sum(p["commit_lat"])
        return client - spans.total_s.get("serve.decide", 0.0)

    return {
        "trace_overhead_frac": (
            median(t["wall"] for t in traced) / median(p["wall"] for p in plain)
            - 1.0,
            "frac",
        ),
        "item_samples": (counts["conflicts"], "count"),
        "serve.policy_decide_s": (
            med(lambda p, s: s.self_time("serve.policy_decide")),
            "s",
        ),
        "serve.estimator_update_s": (
            med(lambda p, s: s.self_time("serve.estimator_update")),
            "s",
        ),
        "serve.log_encode_s": (
            med(lambda p, s: s.self_time("serve.log_encode")),
            "s",
        ),
        "serve.wait_s": (med(wait_s), "s"),
        "serve.conflicts": (counts["conflicts"], "count"),
        "serve.commits": (counts["commits"], "count"),
        "serve.grants": (counts["grants"], "count"),
        "serve.aborts": (counts["aborts"], "count"),
        "serve.regime_switches": (counts["regime_switches"], "count"),
    }

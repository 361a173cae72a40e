"""htm-stack: Figure 3's stack panel, one 8-core cell per policy.

A pass builds one fresh machine per entry of ``FIG3_POLICIES`` (caches
start empty, as in ``run_fig3``), then runs each cell to the horizon and
checks it with ``workload.verify``.  Build is set-up; run and verify
are the timed window; ``check_invariants`` runs after the window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.fig3 import FIG3_POLICIES
from repro.htm import (
    DetDelay,
    Machine,
    MachineParams,
    NoDelay,
    RandDelay,
    TunedDelay,
)
from repro.htm.cache import L1Cache
from repro.obs import PhaseProfiler
from repro.workloads import StackWorkload

from benchlib import Outcome, Spans, median, patched, quantile, repeat

#: prefixes of the per-layer metrics this workload measures; the
#: others are layers it bypasses
LAYERS = ("sim.", "htm.", "workloads.")

N_CORES = 8
HORIZON = 200_000.0
TINY_HORIZON = 20_000.0

_STATIC_POLICIES = {
    "NO_DELAY": NoDelay,
    "DELAY_DET": DetDelay,
    "DELAY_RAND": RandDelay,
}


def policy_factory(name: str, workload: StackWorkload, params: MachineParams):
    """One policy instance per core, as ``run_fig3`` builds them."""
    if name == "DELAY_TUNED":
        tuned = workload.tuned_delay_cycles(params)
        return lambda core_id: TunedDelay(tuned)
    return lambda core_id: _STATIC_POLICIES[name]()


_CORE_LABELS = {"core-start", "compute", "fence", "next-op", "retry"}
_CONTROLLER_LABELS = {"commit", "l1-hit", "fill-done", "grace", "ra-backstop"}
HANDLER_GROUPS = (
    "htm.core_model",
    "htm.controller",
    "htm.directory",
    "htm.other",
)


def handler_group(label: str) -> str:
    """The layer an event handler belongs to, by its event label."""
    if label in _CORE_LABELS:
        return "htm.core_model"
    if label in _CONTROLLER_LABELS or label.startswith("probe-"):
        return "htm.controller"
    if label.startswith("dir-"):
        return "htm.directory"
    return "htm.other"


class LayerProfiler(PhaseProfiler):
    """A PhaseProfiler that also opens a span per event handler, named
    after the handler's layer, so spans of the layers it calls into
    (cache, waits-for graph, policy) nest inside it."""

    def __init__(self, spans: Spans) -> None:
        super().__init__()
        self.spans = spans

    def record_fire(self, label: str, fire) -> None:
        self.spans.call(handler_group(label), super().record_fire, label, fire)


@dataclass
class Cell:
    policy: str
    workload: StackWorkload
    machine: Machine


def build(seed: int) -> list[Cell]:
    """One loaded machine per Figure 3 policy.

    The load seed is the one ``run_fig3`` gives an 8-thread cell's
    first repeat, so a cell here is that panel cell.
    """
    cells = []
    for name in FIG3_POLICIES:
        params = MachineParams(n_cores=N_CORES)
        workload = StackWorkload()
        machine = Machine(params, policy_factory(name, workload, params))
        machine.load(workload, seed=seed + 1009 * N_CORES)
        cells.append(Cell(name, workload, machine))
    return cells


def setup(seed: int) -> dict[str, float]:
    start = time.perf_counter()
    build(seed)
    return {"build_s": time.perf_counter() - start}


def _run_pass(cells: list[Cell], horizon: float) -> dict:
    """Run every cell; returns timings, counts and per-cell errors."""
    items, run_s, errors = [], 0.0, []
    start = time.perf_counter()
    for cell in cells:
        t0 = time.perf_counter()
        try:
            cell.machine.run(horizon)
            t1 = time.perf_counter()
            cell.workload.verify(cell.machine)
        except Exception as exc:  # a failed cell is reported, not fatal
            t1 = time.perf_counter()
            errors.append(f"{cell.policy}: {type(exc).__name__}: {exc}")
        t2 = time.perf_counter()
        run_s += t1 - t0
        items.append(t2 - t0)
    wall = time.perf_counter() - start
    for cell in cells:
        try:
            cell.machine.check_invariants()
        except Exception as exc:
            errors.append(f"{cell.policy}: invariants: {exc}")
    return {
        "wall": wall,
        "run_s": run_s,
        "items": items,
        "errors": errors,
        "counts": _counts(cells),
    }


def _counts(cells: list[Cell]) -> dict:
    """Simulated statistics of a pass; deterministic for a fixed seed."""
    total = {
        "events": 0,
        "sim_cycles": 0.0,
        "ops": 0,
        "tx_committed": 0,
        "tx_aborted": 0,
        "conflicts": 0,
        "grace_expired": 0,
        "cycle_aborts": 0,
        "fallback_ops": 0,
        "l1_hits": 0,
        "l1_misses": 0,
    }
    digests = {}
    for cell in cells:
        stats = cell.machine.stats
        total["events"] += cell.machine.sim.events_fired
        total["sim_cycles"] += cell.machine.sim.now
        total["ops"] += stats.ops_completed
        total["tx_committed"] += stats.tx_committed
        total["tx_aborted"] += stats.tx_aborted
        total["conflicts"] += stats.total("conflicts_received")
        total["grace_expired"] += stats.abort_reasons().get("conflict_timeout", 0)
        total["cycle_aborts"] += stats.cycle_aborts
        total["fallback_ops"] += stats.total("fallback_ops")
        total["l1_hits"] += stats.total("l1_hits")
        total["l1_misses"] += stats.total("l1_misses")
        digests[cell.policy] = stats.digest()
    return {"totals": total, "cell_digests": digests}


def _traced_pass(seed: int, horizon: float) -> tuple[dict, Spans, list]:
    spans = Spans()
    cells = build(seed)
    profilers = []
    for cell in cells:
        profiler = LayerProfiler(spans)
        cell.machine.attach_profiler(profiler)
        profilers.append(profiler)
    targets = [
        (L1Cache, "clear_tx_bits", "htm.cache.tx_clear"),
        (L1Cache, "invalidate_tx_lines", "htm.cache.tx_clear"),
        (Machine, "chain_size", "htm.machine.waits_for"),
        (Machine, "check_cycle", "htm.machine.waits_for"),
        (StackWorkload, "verify", "workloads.verify"),
    ] + [
        (type(cell.machine.mems[0].policy), "decide", "htm.policy.decide")
        for cell in cells
    ]
    with patched(spans, targets):
        result = _run_pass(cells, horizon)
    return result, spans, profilers


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    horizon = TINY_HORIZON if tiny else HORIZON
    plain, traced, profiles = [], [], []

    def one_pass() -> None:
        plain.append(_run_pass(build(seed), horizon))
        if trace:
            result, spans, profilers = _traced_pass(seed, horizon)
            traced.append(result)
            profiles.append((spans, profilers))

    rss_mb = repeat(seconds, one_pass)

    passes = plain + traced
    errors = [e for p in passes for e in p["errors"]]
    counts = plain[0]["counts"]
    errors += [
        f"pass {i} simulated stats differ from pass 0"
        for i, p in enumerate(passes[1:], start=1)
        if p["counts"] != counts
    ]
    cells = sum(len(p["items"]) for p in passes)
    failed = min(len(errors), cells)

    if not trace:
        items = [sorted(p["items"]) for p in plain]
        metrics = {
            "peak_rss_mb": (rss_mb, "MB"),
            "wall_s": (median(p["wall"] for p in plain), "s"),
            "work_per_s": (
                median(
                    counts["totals"]["sim_cycles"] / 1e3 / p["run_s"]
                    for p in plain
                ),
                "1/s",
            ),
            "item_p50_ms": (median(quantile(s, 0.50) for s in items) * 1e3, "ms"),
            "item_p99_ms": (median(quantile(s, 0.99) for s in items) * 1e3, "ms"),
        }
    else:
        metrics = _layer_metrics(plain, traced, profiles, counts, horizon)
    return Outcome(metrics, cells, failed, errors, counts)


def _layer_metrics(plain, traced, profiles, counts, horizon) -> dict:
    totals = counts["totals"]
    events = totals["events"]

    def med(fn):
        return median(fn(spans, profilers) for spans, profilers in profiles)

    # handler time is read from the layer spans, not the profiler's own
    # handler clock, so the span bookkeeping is not charged to the kernel
    def handlers(spans):
        return sum(spans.total_s.get(g, 0.0) for g in HANDLER_GROUPS)

    def kernel_s(spans, profilers):
        return sum(p.loop_seconds for p in profilers) - handlers(spans)

    def occupancy(spans, profilers):
        return handlers(spans) / sum(p.loop_seconds for p in profilers)

    attempts = totals["tx_committed"] + totals["tx_aborted"]
    accesses = totals["l1_hits"] + totals["l1_misses"]
    sim_seconds = len(FIG3_POLICIES) * horizon / (MachineParams().clock_ghz * 1e9)
    metrics = {
        "trace_overhead_frac": (
            median(t["wall"] for t in traced) / median(p["wall"] for p in plain)
            - 1.0,
            "frac",
        ),
        "item_samples": (len(plain[0]["items"]), "count"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (
            median(p["run_s"] for p in plain) / events * 1e9,
            "ns",
        ),
        "sim.kernel_s": (med(kernel_s), "s"),
        "sim.occupancy": (med(occupancy), "frac"),
        "htm.cache.tx_clear_s": (
            med(lambda s, _: s.self_time("htm.cache.tx_clear")),
            "s",
        ),
        "htm.cache.tx_clear_calls": (
            profiles[0][0].count("htm.cache.tx_clear"),
            "count",
        ),
        "htm.cache.l1_hit_ratio": (totals["l1_hits"] / accesses, "frac"),
        "htm.machine.waits_for_s": (
            med(lambda s, _: s.self_time("htm.machine.waits_for")),
            "s",
        ),
        "htm.policy.decide_s": (
            med(lambda s, _: s.self_time("htm.policy.decide")),
            "s",
        ),
        "htm.policy.decisions": (
            profiles[0][0].count("htm.policy.decide"),
            "count",
        ),
        "htm.tx_committed": (totals["tx_committed"], "count"),
        "htm.tx_aborted": (totals["tx_aborted"], "count"),
        "htm.commit_ratio": (totals["tx_committed"] / attempts, "frac"),
        "htm.conflicts": (totals["conflicts"], "count"),
        "htm.grace_expired": (totals["grace_expired"], "count"),
        "htm.cycle_aborts": (totals["cycle_aborts"], "count"),
        "htm.fallback_ops": (totals["fallback_ops"], "count"),
        "htm.sim_ops_per_s": (totals["ops"] / sim_seconds, "1/s"),
        "workloads.verify_s": (
            med(lambda s, _: s.self_time("workloads.verify")),
            "s",
        ),
    }
    for group in HANDLER_GROUPS:
        metrics[f"{group}.busy_s"] = (
            med(lambda s, _, g=group: s.self_time(g)),
            "s",
        )
    return metrics

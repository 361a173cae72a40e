"""Tests for event timelines: a trace bus feeding a ListSink, and the HTM
machine's emission onto it."""

from __future__ import annotations

from repro.htm import Machine, MachineParams, RandDelay
from repro.obs import NULL_BUS, ListSink, ObsEvent, TraceBus, get_bus, use_bus
from repro.workloads import CounterWorkload


def _recording_bus() -> tuple[TraceBus, ListSink]:
    bus, sink = TraceBus(), ListSink()
    bus.subscribe(sink)
    return bus, sink


def _run_traced(n_cores: int, seed: int, horizon: float, **workload_kw):
    """Run a counter machine built under a recording bus (the machine
    binds the active bus at construction)."""
    bus, sink = _recording_bus()
    with use_bus(bus):
        machine = Machine(MachineParams(n_cores=n_cores), lambda i: RandDelay())
    workload = CounterWorkload(**workload_kw)
    machine.load(workload, seed=seed)
    stats = machine.run(horizon)
    workload.verify(machine)
    return sink.events, stats


def _counts(events) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


class TestTracer:
    """The recording recipe: ``TraceBus`` + ``ListSink``."""

    def test_emit_and_query(self):
        bus, sink = _recording_bus()
        bus.emit(10.0, "abort", 1, reason="capacity")
        bus.emit(20.0, "commit", 2, duration=50)
        assert len(sink.events) == 2
        assert _counts(sink.events) == {"abort": 1, "commit": 1}
        assert [e.kind for e in sink.events if e.kind == "abort"] == ["abort"]

    def test_render(self):
        bus, sink = _recording_bus()
        bus.emit(1.5, "conflict", 3, line=7, k=2)
        text = "\n".join(e.format() for e in sink.events)
        assert "core3" in text
        assert "conflict" in text
        assert "line=7" in text

    def test_clear(self):
        bus, sink = _recording_bus()
        bus.emit(1.0, "x", 0)
        sink.clear()
        assert sink.events == []

    def test_event_format(self):
        event = ObsEvent(12.0, "abort", 4, {"reason": "cycle"})
        assert "reason=cycle" in event.format()


class TestMachineIntegration:
    def test_timeline_recorded(self):
        events, _ = _run_traced(4, seed=1, horizon=60_000.0)
        counts = _counts(events)
        assert counts.get("commit", 0) > 0
        assert counts.get("conflict", 0) > 0
        assert counts.get("abort", 0) > 0

    def test_commit_count_matches_stats(self):
        events, stats = _run_traced(2, seed=1, horizon=200_000.0, ops_limit=100)
        assert _counts(events).get("commit", 0) == stats.tx_committed

    def test_conflict_events_carry_decision(self):
        events, _ = _run_traced(4, seed=2, horizon=60_000.0)
        conflicts = [e for e in events if e.kind == "conflict"]
        assert conflicts
        for event in conflicts:
            assert event.detail["k"] >= 2
            assert event.detail["delay"] >= 0
            assert event.detail["mode"] in (
                "requestor_wins",
                "requestor_aborts",
            )

    def test_default_is_null_tracer(self):
        # with no bus installed the machine publishes to the inert null bus
        assert get_bus() is NULL_BUS
        machine = Machine(MachineParams(n_cores=2), lambda i: RandDelay())
        machine.load(CounterWorkload(ops_limit=10), seed=1)
        machine.run(20_000.0)
        assert machine.bus is NULL_BUS
        assert NULL_BUS.emitted == 0

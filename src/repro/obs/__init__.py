"""Unified observability layer: metrics, structured tracing, profiling.

Three coordinated pieces (docs/OBSERVABILITY.md):

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters and
  fixed-edge histograms with cheap no-op handles when nothing records,
  and deterministic snapshot merging.
* :mod:`repro.obs.tracebus` — a :class:`TraceBus` of typed
  :class:`ObsEvent` records with JSONL and Chrome ``trace_event``
  serialization.
* :mod:`repro.obs.profile` — :class:`PhaseProfiler` for per-phase wall
  clock and event-loop occupancy in the simulation kernel.

:func:`capture` is the one on-switch: it installs a fresh registry and
bus for the duration of a block and hands back everything recorded::

    with capture() as cap:
        machine = Machine(params, policy_factory)
        machine.load(workload, seed=1)
        machine.run(60_000.0)
    cap.snapshot()   # {"counters": ..., "histograms": ...}
    cap.events       # [ObsEvent, ...] in emission order

The CLI's ``--metrics-out``/``--trace-out`` and the parallel executor's
per-worker collection are built on it.  Outside a capture every emitter
sees the inert :data:`NULL_REGISTRY` and :data:`NULL_BUS`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    _use_registry,
    get_registry,
    merge_snapshots,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.tracebus import (
    EVENT_KINDS,
    NULL_BUS,
    NullBus,
    ObsEvent,
    TraceBus,
    _use_bus,
    chrome_trace,
    get_bus,
    jsonl_line,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "merge_snapshots",
    "ObsEvent",
    "TraceBus",
    "NullBus",
    "NULL_BUS",
    "get_bus",
    "jsonl_line",
    "write_jsonl",
    "chrome_trace",
    "EVENT_KINDS",
    "PhaseProfiler",
    "Capture",
    "capture",
    "obs_active",
]


def obs_active() -> bool:
    """True inside a :func:`capture` block."""
    return get_registry().enabled or get_bus().enabled


class Capture:
    """What :func:`capture` collected: a registry plus a bus."""

    def __init__(self, registry: MetricsRegistry, bus: TraceBus) -> None:
        self.registry = registry
        self.bus = bus

    @property
    def events(self) -> list[ObsEvent]:
        return self.bus.events

    def snapshot(self) -> dict:
        return self.registry.snapshot()


@contextmanager
def capture() -> Iterator[Capture]:
    """Install a fresh registry + bus for the block; yields the capture.

    Everything emitted inside the block — machine counters chained to
    the registry, bus events from any layer — is recorded; the previous
    registry/bus are restored on exit.  The capture object stays valid
    after the block (snapshots and events are read after restoration).
    """
    registry = MetricsRegistry()
    bus = TraceBus()
    with _use_registry(registry), _use_bus(bus):
        yield Capture(registry, bus)

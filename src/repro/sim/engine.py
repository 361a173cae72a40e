"""Event-driven simulation kernel.

Design notes
------------
* **Stable ordering.**  Events at equal timestamps fire in insertion
  order (a monotonically increasing sequence number breaks heap ties).
  Deterministic tie-breaking is what makes every simulation in this
  repository exactly reproducible for a fixed seed.
* **Cancellation by invalidation.**  ``cancel()`` marks the event dead
  in O(1); dead events are skipped on pop (the standard lazy-deletion
  heap idiom — cheaper than heap surgery and amortized O(log n)).
  When dead events outnumber live ones the heap is *compacted* (rebuilt
  from the live events) so long adversarial runs with heavy
  cancellation — grace timers killed by cycle aborts, fault-injected
  spurious aborts — keep memory proportional to live events instead of
  growing without bound.
* **Watchdog.**  ``run(wall_deadline=...)`` checks the wall clock every
  few thousand events and raises
  :class:`~repro.errors.ExperimentTimeoutError` past the deadline — the
  kernel-level half of the experiment runner's timeout story (the
  runner also arms a signal-based watchdog for non-kernel loops).
* **No co-routines.**  Handlers are plain callables; components keep
  explicit state machines.  This is intentional: the HTM controllers
  are specified as state machines (MSI tables), and explicit states are
  what the protocol invariant checks inspect.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ExperimentTimeoutError, SimulationError

__all__ = ["Event", "EventQueue", "Simulator"]


@dataclass(order=False, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)``; ``seq`` is assigned by the queue.
    ``__slots__`` keeps the per-event footprint flat — hot runs allocate
    millions of these.
    """

    time: float
    handler: Callable[..., None]
    args: tuple = ()
    label: str = ""
    seq: int = field(default=-1, compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True

    def fire(self) -> None:
        self.handler(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventQueue:
    """Binary-heap priority queue of :class:`Event` with lazy deletion.

    Dead (cancelled) events are skipped on pop; when they outnumber the
    live events the heap is compacted.  Without compaction a long run
    that cancels faster than it pops — adversarial cycle-abort storms
    cancelling grace timers, fault-injected abort timers — grows the
    heap without bound.
    """

    #: Compaction only kicks in above this many dead events, so small
    #: queues never pay a rebuild.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0
        self._dead = 0

    def push(self, event: Event) -> Event:
        if not math.isfinite(event.time):
            raise SimulationError(f"event time must be finite, got {event.time}")
        event.seq = next(self._counter)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def pop(self) -> Event | None:
        """Pop the earliest live event, or None when empty."""
        heap, heappop = self._heap, heapq.heappop
        while heap:
            event = heappop(heap)
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without popping it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._dead -= 1
        return self._heap[0].time if self._heap else None

    def cancel(self, event: Event) -> None:
        if not event.cancelled:
            event.cancel()
            self._live -= 1
            self._dead += 1
            if self._dead > self.COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live events only.  ``heapify`` is O(n)
        and the (time, seq) ordering is preserved exactly, so firing
        order — and therefore simulation determinism — is unaffected."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def heap_size(self) -> int:
        """Physical heap length including dead entries (observability
        for the compaction tests and memory diagnostics)."""
        return len(self._heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class Simulator:
    """Simulation facade: a clock plus an event queue.

    Components schedule work with :meth:`at` / :meth:`after`; the main
    loop (:meth:`run`) advances the clock to each event in order.  Time
    is a float (the HTM layer uses integral cycle counts stored in
    floats; exactness holds below 2**53 cycles, far beyond any run).
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self.events_fired = 0
        self._running = False
        # optional repro.obs.profile.PhaseProfiler: when attached,
        # step() routes handler firing through it (wall-clock handler
        # timing + loop occupancy).  Pure observation — timings never
        # feed the simulation, so determinism is untouched.
        self.profiler = None

    # -- scheduling -------------------------------------------------------
    def at(
        self,
        time: float,
        handler: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``handler(*args)`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self.now}"
            )
        return self.queue.push(Event(time, handler, args, label))

    def after(
        self,
        delay: float,
        handler: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``handler(*args)`` after a relative ``delay`` >= 0."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, handler, *args, label=label)

    def cancel(self, event: Event) -> None:
        self.queue.cancel(event)

    # -- main loop ---------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError(
                f"event queue produced a past event: {event.time} < {self.now}"
            )
        self.now = event.time
        self.events_fired += 1
        if self.profiler is not None:
            self.profiler.record_fire(event.label or "<unlabeled>", event.fire)
        else:
            event.fire()
        return True

    #: Events between wall-clock deadline checks (cheap enough to leave
    #: on; a check is one ``time.monotonic`` call per batch).
    WATCHDOG_EVERY = 4096

    def run(
        self,
        until: float = math.inf,
        *,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
        wall_deadline: float | None = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, ``stop_when``
        returns True, or ``max_events`` have fired.  Returns the final
        clock value.

        ``until`` is exclusive: an event at exactly ``until`` does not
        fire, and the clock is advanced to ``until`` when the horizon is
        the binding stop condition.

        ``wall_deadline`` is an absolute ``time.monotonic()`` instant;
        every :data:`WATCHDOG_EVERY` events the clock is checked and
        :class:`~repro.errors.ExperimentTimeoutError` raised past it.
        The simulation is left in a consistent (resumable) state — the
        deadline fires between events, never inside a handler.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        fired = 0
        if self.profiler is not None:
            self.profiler.loop_enter()
        # hoisted attribute lookups for the hot loop (bound methods are
        # invariant across iterations; semantics identical)
        peek_time = self.queue.peek_time
        step = self.step
        monotonic = time.monotonic
        watchdog_every = self.WATCHDOG_EVERY
        try:
            while True:
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and fired >= max_events:
                    break
                if (
                    wall_deadline is not None
                    and fired % watchdog_every == 0
                    and monotonic() >= wall_deadline  # simlint: disable=DET001 -- watchdog wall-clock budget
                ):
                    raise ExperimentTimeoutError(
                        f"simulation exceeded its wall-clock budget at "
                        f"t={self.now:.0f} after {self.events_fired} events"
                    )
                nxt = peek_time()
                if nxt is None:
                    break
                if nxt >= until:
                    self.now = max(self.now, min(until, nxt))
                    break
                step()
                fired += 1
        finally:
            self._running = False
            if self.profiler is not None:
                self.profiler.loop_exit()
        return self.now

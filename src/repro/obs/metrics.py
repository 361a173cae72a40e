"""Process-local metrics: counters and deterministic histograms.

The registry is the numeric half of the observability layer
(docs/OBSERVABILITY.md).  Three design rules keep it compatible with
the repository's bit-determinism contract:

* **Integer-only aggregation.**  Counters and histogram bucket counts
  are integers, so merging per-worker snapshots is associative and
  byte-exact regardless of how trials were sharded.
* **Fixed bucket edges.**  Histograms take their edges at creation and
  never adapt, so two runs (or two workers) always bucket identically.
* **Cheap no-op handles.**  The module-level registry defaults to
  :data:`NULL_REGISTRY`; its instruments are shared singletons whose
  methods do nothing, so instrumented hot paths cost one attribute
  lookup and a constant call when observability is off.

The only way to install a live module-level registry is
:func:`repro.obs.capture`.  Per-machine registries chain to it at
handle-creation time: when a capture is active, every increment lands
both locally (machine stats) and in the capture.
"""

from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import InvalidParameterError

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "merge_snapshots",
]


class Counter:
    """Monotonic integer count; ``inc`` forwards to a parent handle."""

    __slots__ = ("name", "_value", "_parent")

    def __init__(self, name: str, parent: "Counter | None" = None) -> None:
        self.name = name
        self._value = 0
        self._parent = parent

    def inc(self, n: int = 1) -> None:
        self._value += n
        if self._parent is not None:
            self._parent.inc(n)

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Fixed-edge histogram; deterministic by construction.

    ``edges`` are the ascending bucket boundaries: an observation lands
    in bucket ``i`` when ``edges[i] <= x < edges[i+1]``; values below
    ``edges[0]`` count as underflow, values at or above ``edges[-1]``
    as overflow.  Only integer counts are stored, so snapshots merge
    exactly.
    """

    __slots__ = ("name", "edges", "counts", "underflow", "overflow", "n",
                 "_parent")

    def __init__(
        self,
        name: str,
        edges: Sequence[float],
        parent: "Histogram | None" = None,
    ) -> None:
        edges = tuple(edges)
        if len(edges) < 2:
            raise InvalidParameterError(
                f"histogram {name!r} needs >= 2 edges, got {len(edges)}"
            )
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise InvalidParameterError(
                f"histogram {name!r} edges must be strictly ascending"
            )
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) - 1)
        self.underflow = 0
        self.overflow = 0
        self.n = 0
        self._parent = parent

    def observe(self, x: float) -> None:
        self.n += 1
        if x < self.edges[0]:
            self.underflow += 1
        elif x >= self.edges[-1]:
            self.overflow += 1
        else:
            self.counts[bisect.bisect_right(self.edges, x) - 1] += 1
        if self._parent is not None:
            self._parent.observe(x)

    def quantile(self, q: float) -> float:
        """Edge-resolution nearest-rank quantile.

        Returns the smallest bucket boundary ``b`` such that at least
        ``ceil(q * n)`` observations were strictly below ``b`` — i.e.
        the upper edge of the bucket holding the nearest-rank sample,
        a conservative (never under-reporting) latency read.  Ranks
        that land in the underflow region clamp to ``edges[0]`` and
        ranks in the overflow region clamp to ``edges[-1]``; an empty
        histogram returns NaN.

        The exact contract the latency-accounting tests pin: for any
        observation stream, the sorted-array nearest-rank value lies
        inside the bucket whose upper edge this returns (or beyond the
        clamped edge for under/overflow).
        """
        if not 0.0 < q <= 1.0:
            raise InvalidParameterError(
                f"quantile q must be in (0, 1], got {q!r}"
            )
        if self.n == 0:
            return float("nan")
        rank = max(1, math.ceil(self.n * q))
        cumulative = self.underflow
        if cumulative >= rank:
            return self.edges[0]
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return self.edges[i + 1]
        return self.edges[-1]

    def snapshot(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "n": self.n,
        }


class _NullInstrument:
    """Shared do-nothing counter/histogram."""

    __slots__ = ()
    name = "<null>"
    value = 0

    def inc(self, n: int = 1) -> None:
        return None

    def observe(self, x: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled registry: hands out the shared no-op instrument."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, edges: Sequence[float] | None = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}}

    def absorb(self, snap: dict) -> None:
        return None


#: Shared disabled registry (the default module-level state).
NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """A live registry of named instruments.

    ``parent`` (optional) chains every instrument to the same-named
    instrument of another registry: increments apply to both.  The HTM
    machine uses this to feed a CLI capture without giving up its own
    always-on local counters.
    """

    enabled = True

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._parent = parent

    # -- instruments --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        handle = self._counters.get(name)
        if handle is None:
            parent = self._parent.counter(name) if self._parent else None
            handle = self._counters[name] = Counter(name, parent)
        return handle

    def histogram(
        self, name: str, edges: Sequence[float] | None = None
    ) -> Histogram:
        handle = self._histograms.get(name)
        if handle is None:
            if edges is None:
                raise InvalidParameterError(
                    f"histogram {name!r} does not exist yet; pass its edges"
                )
            parent = (
                self._parent.histogram(name, edges) if self._parent else None
            )
            handle = self._histograms[name] = Histogram(name, edges, parent)
        elif edges is not None and tuple(edges) != handle.edges:
            raise InvalidParameterError(
                f"histogram {name!r} already exists with different edges"
            )
        return handle

    # -- views --------------------------------------------------------------
    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """``{name: value}`` for counters whose name starts with ``prefix``
        (sorted by name, so iteration order is deterministic)."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """JSON-able, sorted, integer-exact state (the merge unit)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def absorb(self, snap: dict) -> None:
        """Fold one snapshot into this registry (counters and histogram
        counts add, so the result does not depend on absorb order)."""
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, hist in snap.get("histograms", {}).items():
            handle = self.histogram(name, hist["edges"])
            for i, count in enumerate(hist["counts"]):
                handle.counts[i] += count
            handle.underflow += hist["underflow"]
            handle.overflow += hist["overflow"]
            handle.n += hist["n"]


def merge_snapshots(snaps: Sequence[dict]) -> dict:
    """Merge snapshots into one snapshot.

    Counters and histogram counts are integer sums, so the merge is
    order-free and ``--metrics-out`` output is byte-identical at any
    ``--jobs`` (docs/OBSERVABILITY.md).
    """
    acc = MetricsRegistry()
    for snap in snaps:
        acc.absorb(snap)
    return acc.snapshot()


# -- module-level active registry -------------------------------------------
_active: MetricsRegistry | NullRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process's active registry (the null registry when disabled)."""
    return _active


@contextmanager
def _use_registry(
    registry: MetricsRegistry,
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the block (:func:`repro.obs.capture`'s
    half); restores the previous registry."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous

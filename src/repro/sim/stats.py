"""Online statistics accumulators.

Experiments run millions of trials; storing every sample would dominate
memory, so aggregation is online: Welford's algorithm for mean/variance
(numerically stable — naive sum-of-squares cancels catastrophically at
the magnitudes the cost model produces).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["Welford"]


class Welford:
    """Streaming mean/variance/min/max (Welford's online algorithm)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def add_many(self, xs: np.ndarray) -> None:
        """Merge a batch (vectorized via the parallel-merge formula)."""
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return
        n_b = xs.size
        mean_b = float(xs.mean())
        m2_b = float(((xs - mean_b) ** 2).sum())
        if self.n == 0:
            self.n, self._mean, self._m2 = n_b, mean_b, m2_b
        else:
            n_a = self.n
            delta = mean_b - self._mean
            total = n_a + n_b
            self._mean += delta * n_b / total
            self._m2 += m2_b + delta * delta * n_a * n_b / total
            self.n = total
        self.min = min(self.min, float(xs.min()))
        self.max = max(self.max, float(xs.max()))

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n - 1 denominator)."""
        return self._m2 / (self.n - 1) if self.n > 1 else math.nan

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.n) if self.n > 1 else math.nan

    def merge(self, other: "Welford") -> "Welford":
        """Combine two accumulators (for per-thread partials)."""
        out = Welford()
        for acc in (self, other):
            if acc.n == 0:
                continue
            if out.n == 0:
                out.n, out._mean, out._m2 = acc.n, acc._mean, acc._m2
                out.min, out.max = acc.min, acc.max
            else:
                delta = acc._mean - out._mean
                total = out.n + acc.n
                out._mean += delta * acc.n / total
                out._m2 += acc._m2 + delta * delta * out.n * acc.n / total
                out.n = total
                out.min = min(out.min, acc.min)
                out.max = max(out.max, acc.max)
        return out

    @classmethod
    def merge_all(cls, accs: "Iterable[Welford]") -> "Welford":
        """Left-fold :meth:`merge` over ``accs`` (shard-order combine).

        Used to reassemble per-shard accumulators from a parallel run;
        callers must pass shards in a deterministic order (shard index)
        so the float fold — associative only to rounding — is identical
        no matter how many workers computed the shards.
        """
        out = cls()
        for acc in accs:
            out = out.merge(acc)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Welford n={self.n} mean={self.mean:.4g} std={self.std:.4g}>"

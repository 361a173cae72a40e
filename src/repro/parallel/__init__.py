"""Parallel execution layer: one process pool, sharding, result caching.

:class:`SupervisedPool` (warm workers, heartbeats, bounded restarts,
degradation to serial) is the only process pool.  It serves two levels
of fan-out (docs/PERFORMANCE.md):

* **Inter-experiment** — :class:`ParallelExecutor` runs whole
  experiments in worker processes with parent-enforced process-level
  timeouts (``python -m repro all --jobs N``).
* **Intra-experiment** — :meth:`SupervisedPool.starmap` maps trial
  shards (``SyntheticHarness.run(n_shards=...)``) and sweep cells
  (``run_fig3(pool=...)``) over workers, in task order; per-shard
  ``SeedSequence`` streams plus ordered ``Welford.merge_all`` keep
  results bit-identical for a fixed ``(seed, n_shards)`` and invariant
  to the worker count.  ``pool=None`` runs the shards serially.

Plus :class:`ResultCache`, the content-addressed row store keyed on
``exp_id + kwargs + seed + quick +`` a source-tree fingerprint, whose
checksummed, atomically written entries are also the batch's only
crash-recovery record (rerun the same command after a crash), and
:class:`RetryPolicy` (the one retry/re-execution/restart budget object
every path shares).
"""

from __future__ import annotations

from repro.parallel.cache import (
    ResultCache,
    atomic_write_text,
    cache_key,
    scan_cache_dir,
    source_fingerprint,
)
from repro.parallel.executor import (
    ExperimentOutcome,
    ExperimentTask,
    ParallelExecutor,
)
from repro.parallel.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.parallel.supervisor import (
    SupervisedPool,
    SupervisorStats,
    best_start_method,
)

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "ExperimentOutcome",
    "ExperimentTask",
    "ParallelExecutor",
    "ResultCache",
    "RetryPolicy",
    "SupervisedPool",
    "SupervisorStats",
    "atomic_write_text",
    "best_start_method",
    "cache_key",
    "scan_cache_dir",
    "source_fingerprint",
]

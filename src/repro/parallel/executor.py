"""The batch executor: every ``python -m repro <ids>`` run goes here.

:class:`ParallelExecutor` turns experiment ids into supervised tasks;
the heavy lifting lives in :mod:`repro.parallel.supervisor`.  At
``--jobs 1``, or for a single id without chaos, the pool runs the tasks
in the parent (a lone id at ``--jobs N`` gets a shard pool); otherwise:

* **Workers** run :func:`repro.experiments.run_experiment` — each in
  the *main thread of its own process*, so the ``SIGALRM`` watchdog is
  fully armed there (the worker's heartbeat thread is a side thread;
  the task body stays on the main thread).  Workers are *warm*:
  spawned once per run and fed tasks over their pipes until the queue
  drains.
* **The parent** renders results (``on_complete`` fires in completion
  order) and supervises workers — process-level timeouts,
  heartbeat-based hang detection, bounded re-execution of tasks whose
  worker crashed, and degradation to serial in-parent execution when
  the restart budget runs out.

Determinism: a worker computes rows with exactly the same
``run_experiment`` call the in-parent path uses, and nothing about
scheduling (or supervision — re-execution reruns the same seeded body)
feeds the computation, so rows are invariant to ``--jobs`` and to any
chaos schedule that lets the run complete.  Results are *reported* in
submission order.  Each task stores its rows in the result cache as it
finishes, so the cache is the batch's crash-recovery record: rerunning
a killed batch replays finished experiments as hits.
"""

from __future__ import annotations

from typing import Callable

from repro.parallel.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.parallel.supervisor import (
    ExperimentOutcome,
    ExperimentTask,
    SupervisedPool,
)

__all__ = ["ExperimentTask", "ExperimentOutcome", "ParallelExecutor"]


class ParallelExecutor:
    """Run ``exp_ids`` on a supervised pool of ``jobs`` workers.

    ``quick``/``seed``/``timeout``/``overrides`` are forwarded to every
    :func:`~repro.experiments.run_experiment` call, and ``retry`` sets
    its ``SimulationError`` retries, crash re-execution and the worker
    restart budget.  ``kill_grace`` is the slack after ``timeout``
    before the parent stops trusting the in-worker watchdog and kills
    the process itself.
    """

    def __init__(
        self,
        jobs: int,
        *,
        quick: bool = False,
        seed: int | None = None,
        timeout: float | None = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
        cache_dir: str | None = None,
        fingerprint: str | None = None,
        overrides: dict | None = None,
        collect: bool = False,
        kill_grace: float = 5.0,
        poll_interval: float = 0.05,
        heartbeat_timeout: float | None = None,
        chaos=None,
        start_method: str | None = None,
    ) -> None:
        self.jobs = jobs
        self.quick = quick
        self.seed = seed
        self.timeout = timeout
        self.retry = retry
        self.cache_dir = cache_dir
        self.fingerprint = fingerprint
        self.overrides = dict(overrides or {})
        self.collect = collect
        pool_kwargs = dict(
            retry=self.retry,
            timeout=timeout,
            kill_grace=kill_grace,
            poll_interval=poll_interval,
            chaos=chaos,
            start_method=start_method,
        )
        if heartbeat_timeout is not None:
            pool_kwargs["heartbeat_timeout"] = heartbeat_timeout
        self.pool = SupervisedPool(jobs, **pool_kwargs)

    @property
    def stats(self):
        """Supervision counters from the most recent :meth:`run`."""
        return self.pool.stats

    # ------------------------------------------------------------------
    def _task(self, exp_id: str) -> ExperimentTask:
        return ExperimentTask(
            exp_id=exp_id,
            quick=self.quick,
            seed=self.seed,
            timeout=self.timeout,
            retry=self.retry,
            cache_dir=self.cache_dir,
            fingerprint=self.fingerprint,
            overrides=self.overrides,
            collect=self.collect,
        )

    def run(
        self,
        exp_ids: list[str],
        *,
        on_complete: Callable[[ExperimentOutcome], None] | None = None,
        stop_on_failure: bool = False,
    ) -> list[ExperimentOutcome]:
        """Execute ``exp_ids``; return outcomes in submission order.

        ``on_complete`` fires in *completion* order, in the parent.  With
        ``stop_on_failure`` a failure stops launching new work; already
        running experiments finish, unstarted ones come back
        ``"skipped"``.
        """
        outcomes = self.pool.run(
            [self._task(exp_id) for exp_id in exp_ids],
            on_outcome=on_complete,
            stop_on_failure=stop_on_failure,
        )
        for exp_id in exp_ids:  # unstarted under stop_on_failure
            if exp_id not in outcomes:
                outcomes[exp_id] = ExperimentOutcome(exp_id, "skipped")
        return [outcomes[exp_id] for exp_id in exp_ids]

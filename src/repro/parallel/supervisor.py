"""Supervised warm worker pool: heartbeats, restarts, degradation.

The original executor paid one process spawn per experiment and treated
any worker death as a terminal, unexplained failure.  This module is
the robust replacement underneath :class:`~repro.parallel.executor.
ParallelExecutor`:

* **Warm pool** — up to ``jobs`` worker processes are spawned *once*
  per run and then fed tasks over duplex pipes until the queue drains
  (the scaffolding the ROADMAP's shared-memory speedup work needs).
* **Heartbeats** — each worker runs a tiny side thread that pings the
  parent every ``heartbeat_interval`` seconds; a worker whose beats
  stop (SIGSTOP, deadlocked interpreter, dead machine slot) is declared
  hung after ``heartbeat_timeout`` and killed.
* **Crash supervision** — a worker that dies (pipe EOF) has its exit
  status classified (``signal:SIGKILL`` / ``exit:3`` / ``clean``), its
  in-flight task re-dispatched to a fresh worker with exponential
  backoff, bounded by :class:`~repro.parallel.retry.RetryPolicy.
  max_task_reexecutions`.
* **Degradation ladder** — dead workers are replaced while the
  pool-wide ``max_worker_restarts`` budget lasts; when the pool empties
  with work remaining, the supervisor runs the rest *serially in the
  parent* (``degraded_to_serial``) — a chaotic host can slow a run
  down, never wedge or lose it.

Determinism: supervision decides only *where and how often* a task body
executes; the body itself is :func:`repro.experiments.run_experiment`
with a fixed seed, so re-executed tasks produce byte-identical rows and
the chaos CI gate can diff a SIGKILL-riddled run against a fault-free
one.  Supervision events (``worker_crashed``, ``worker_restarted``,
``degraded_to_serial``) go to the *parent's* bus and never into the
per-experiment captures that feed ``--trace-out``.

The same loop serves intra-experiment fan-out: :meth:`SupervisedPool.
starmap` runs ``fn(*args)`` shards (Monte-Carlo trial shards, Figure 3
sweep cells, lint files) and returns their results in task order, so a
sharded computation keeps its crash tolerance and stays bit-identical
at any worker count.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pickle
import signal
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import ExperimentError, InvalidParameterError
from repro.obs import capture, obs_active
from repro.obs.metrics import get_registry
from repro.obs.tracebus import NO_SIM_TIME, get_bus, replay
from repro.parallel.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "ExperimentTask",
    "ExperimentOutcome",
    "ShardTask",
    "SupervisorStats",
    "SupervisedPool",
    "best_start_method",
    "classify_exit",
]

#: How often a worker's heartbeat thread pings the parent (seconds).
DEFAULT_HEARTBEAT_INTERVAL = 0.2
#: Parent-side silence budget before a worker is declared hung.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0


def best_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    Fork keeps the parent's in-memory experiment registry (including
    test doubles registered at runtime) visible to workers; spawn-based
    workers can only run experiments importable from the module tree.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class ExperimentTask:
    """Everything a worker needs to run one experiment (picklable)."""

    exp_id: str
    quick: bool = False
    seed: int | None = None
    timeout: float | None = None
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    cache_dir: str | None = None
    fingerprint: str | None = None
    overrides: dict = field(default_factory=dict)
    #: run under a fresh obs capture and ship the metric snapshot +
    #: trace events back alongside the result
    collect: bool = False

    def call(self):
        """The task body: one cached, watchdogged experiment run."""
        from repro.experiments.registry import run_experiment
        from repro.parallel.cache import ResultCache

        cache = (
            ResultCache(self.cache_dir, fingerprint=self.fingerprint)
            if self.cache_dir
            else None
        )
        return run_experiment(
            self.exp_id,
            quick=self.quick,
            seed=self.seed,
            timeout=self.timeout,
            retry=self.retry,
            cache=cache,
            **self.overrides,
        )


@dataclass(frozen=True)
class ShardTask:
    """One ``fn(*args)`` call of :meth:`SupervisedPool.starmap`.

    ``exp_id`` is the shard's label (``shard-<index>``): it keys the
    outcome and the chaos draws exactly as an experiment id does.
    Workers must take their seed/stream as an explicit argument of
    ``fn`` — enforced statically by simlint rule DET004.
    """

    exp_id: str
    fn: Callable
    args: tuple
    collect: bool = False

    def call(self):
        return self.fn(*self.args)


@dataclass
class ExperimentOutcome:
    """What became of one dispatched experiment."""

    exp_id: str
    status: str  # "ok" | "failed" | "skipped"
    result: object | None = None  # ExperimentResult when status == "ok"
    error_type: str | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    #: per-experiment observability (only with ``collect=True``):
    #: a MetricsRegistry snapshot and the worker's ObsEvent list
    metrics: dict | None = None
    events: list | None = None
    #: how the executing process ended when the run did not return
    #: normally: ``signal:SIGKILL``, ``exit:3``, ``clean``, ``timeout``,
    #: ``heartbeat_timeout`` — None for in-process results
    exit_cause: str | None = None
    #: total executions this task consumed (1 = no re-execution)
    attempts: int = 1
    #: the original exception of a failed :class:`ShardTask`, shipped
    #: back so :meth:`SupervisedPool.starmap` can re-raise it
    exception: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SupervisorStats:
    """Aggregate supervision counters for one pool run."""

    worker_crashes: int = 0
    worker_restarts: int = 0
    task_reexecutions: int = 0
    heartbeat_timeouts: int = 0
    parent_kills: int = 0
    degraded_to_serial: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
            "task_reexecutions": self.task_reexecutions,
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "parent_kills": self.parent_kills,
            "degraded_to_serial": self.degraded_to_serial,
        }

    def any(self) -> bool:
        return any(self.as_dict().values())


def classify_exit(exitcode: int | None) -> str:
    """Human-meaningful cause from a reaped process's exit code."""
    if exitcode is None:
        return "unknown"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = str(-exitcode)
        return f"signal:{name}"
    if exitcode == 0:
        return "clean"
    return f"exit:{exitcode}"


def _execute_task(task: ExperimentTask | ShardTask) -> tuple[str, object]:
    """Run one task body; every outcome becomes data, never a raise.

    Shared by the worker loop and the parent's degraded-serial path, so
    both produce indistinguishable payloads.
    """
    try:
        with (capture() if task.collect else nullcontext()) as cap:
            result = task.call()
        if cap is not None:
            return "ok", (result, cap.snapshot(), cap.events)
        return "ok", result
    except BaseException as exc:  # simlint: disable=ERR002,ERR003 -- process/serialization boundary: the supervisor re-raises this as a failure outcome; a worker must never die silently
        shipped = _portable(exc) if isinstance(task, ShardTask) else None
        return "failed", (type(exc).__name__, str(exc), shipped)


def _portable(exc: BaseException) -> BaseException | None:
    """``exc`` if it survives the pipe's pickle round trip, else None."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # simlint: disable=ERR002 -- unpicklable exception: the parent falls back to the type name and message
        return None


def _pool_worker(conn, worker_id: int, heartbeat_interval: float, chaos_config: dict | None) -> None:  # simlint: disable=DET004 -- seeds ride inside each task payload (an ExperimentTask's seed, a ShardTask's args); the task body derives every stream from them
    """Persistent worker loop: recv task, run, send result, repeat.

    A side thread heartbeats over the same pipe (send-locked) so the
    parent can tell "busy computing" from "frozen or gone".  Chaos, when
    armed, fires at the seeded injection point *before* the task body —
    modeling a worker lost between dispatch and completion.
    """
    from repro.faults.chaos import ChaosPlan, apply_worker_chaos

    chaos = ChaosPlan.from_dict(chaos_config) if chaos_config else None
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(msg) -> bool:
        with send_lock:
            try:
                conn.send(msg)
                return True
            except Exception:  # simlint: disable=ERR002 -- unpicklable payload or vanished parent: the caller downgrades to a reportable failure
                return False

    def beat() -> None:
        n = 0
        while not stop.wait(heartbeat_interval):
            n += 1
            if not send(("hb", worker_id, n)):
                return

    threading.Thread(target=beat, name="heartbeat", daemon=True).start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            task, attempt = msg
            if chaos is not None:
                apply_worker_chaos(chaos, task.exp_id, attempt)
            start = time.monotonic()
            status, payload = _execute_task(task)
            elapsed = time.monotonic() - start
            if not send(("done", task.exp_id, attempt, status, payload, elapsed)):
                # unpicklable result: report the failure instead
                if not send(
                    (
                        "done",
                        task.exp_id,
                        attempt,
                        "failed",
                        ("ExperimentError", "result could not be pickled", None),
                        elapsed,
                    )
                ):
                    break
    finally:
        stop.set()
        conn.close()


@dataclass
class _Worker:
    proc: object
    conn: object
    worker_id: int
    last_beat: float
    #: (task, attempt, dispatch time) while busy, else None
    inflight: tuple | None = None


class SupervisedPool:
    """Spawn-once worker pool with crash/hang supervision.

    ``run`` executes a list of :class:`ExperimentTask` (or
    :class:`ShardTask`) and returns ``{exp_id: ExperimentOutcome}`` for
    every task that was executed (tasks never started — e.g. after
    ``stop_on_failure`` — are simply absent).  ``on_outcome`` fires in
    completion order.  ``starmap`` is the ordered shard map on the same
    workers.
    """

    def __init__(
        self,
        jobs: int,
        *,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
        timeout: float | None = None,
        kill_grace: float = 5.0,
        poll_interval: float = 0.05,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float | None = DEFAULT_HEARTBEAT_TIMEOUT,
        chaos=None,
        start_method: str | None = None,
    ) -> None:
        if jobs < 1:
            raise InvalidParameterError(f"need jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.retry = retry
        self.timeout = timeout
        self.kill_grace = kill_grace
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.chaos = chaos
        self._ctx = multiprocessing.get_context(
            start_method or best_start_method()
        )
        self.stats = SupervisorStats()
        self._workers: dict = {}  # conn -> _Worker
        self._next_worker_id = 0
        self._restarts_used = 0

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(
                child_conn,
                self._next_worker_id,
                self.heartbeat_interval,
                self.chaos.to_dict() if self.chaos is not None else None,
            ),
            name=f"repro-worker-{self._next_worker_id}",
        )
        proc.start()
        child_conn.close()  # parent keeps only its end
        self._workers[parent_conn] = _Worker(
            proc, parent_conn, self._next_worker_id, time.monotonic()
        )
        self._next_worker_id += 1

    def _reap(self, worker: _Worker, *, kill: bool = False) -> int | None:
        """Remove a worker from the pool and collect its exit code."""
        self._workers.pop(worker.conn, None)
        if kill and worker.proc.is_alive():
            worker.proc.kill()  # SIGKILL works on SIGSTOPped processes too
        worker.proc.join()
        worker.conn.close()
        return worker.proc.exitcode

    def _maybe_replace(self, work_remaining: bool) -> None:
        """Spawn a replacement worker inside the restart budget."""
        if not work_remaining or len(self._workers) >= self.jobs:
            return
        if self._restarts_used >= self.retry.max_worker_restarts:
            return  # budget spent: the pool shrinks (ladder to serial)
        delay = self.retry.restart_delay(self._restarts_used)
        self._restarts_used += 1
        if delay > 0:
            time.sleep(min(delay, 1.0))
        self._spawn()
        self.stats.worker_restarts += 1
        get_registry().counter("worker_restarts").inc()
        get_bus().emit(
            NO_SIM_TIME,
            "worker_restarted",
            -1,
            restarts_used=self._restarts_used,
            budget=self.retry.max_worker_restarts,
        )

    def _shutdown(self, *, kill: bool = False) -> None:
        for worker in list(self._workers.values()):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self._workers.values()):
            if kill:
                worker.proc.kill()
            worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.kill()
                worker.proc.join()
            worker.conn.close()
        self._workers.clear()

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: list[ExperimentTask] | list[ShardTask],
        *,
        on_outcome=None,
        stop_on_failure: bool = False,
    ) -> dict[str, ExperimentOutcome]:
        self.stats = SupervisorStats()
        pending: deque = deque((task, 0) for task in tasks)
        delayed: list = []  # (ready_at, task, attempt) crash-requeue backoffs
        outcomes: dict[str, ExperimentOutcome] = {}
        failed = False

        def record(outcome: ExperimentOutcome) -> None:
            nonlocal failed
            outcomes[outcome.exp_id] = outcome
            if outcome.status == "failed":
                failed = True
            if on_outcome is not None:
                on_outcome(outcome)

        def work_remaining() -> bool:
            return bool(pending or delayed)

        def crash_failure(task, attempt, exitcode, cause, elapsed) -> None:
            record(
                ExperimentOutcome(
                    task.exp_id,
                    "failed",
                    error_type="ExperimentError",
                    error=(
                        f"worker for {task.exp_id!r} exited without a "
                        f"result (exit code {exitcode}, cause {cause}, "
                        f"attempt {attempt + 1} of "
                        f"{self.retry.max_task_reexecutions + 1})"
                    ),
                    elapsed_s=elapsed,
                    exit_cause=cause,
                    attempts=attempt + 1,
                )
            )

        def on_worker_death(worker: _Worker, *, cause: str | None = None, kill: bool = False) -> None:  # simlint: disable=DET004 -- parent-side supervision bookkeeping; no randomness, rows unaffected
            now = time.monotonic()
            exitcode = self._reap(worker, kill=kill)
            cause = cause or classify_exit(exitcode)
            self.stats.worker_crashes += 1
            get_registry().counter("worker_crashes").inc()
            get_bus().emit(
                NO_SIM_TIME,
                "worker_crashed",
                -1,
                worker=worker.worker_id,
                cause=cause,
                exp_id=worker.inflight[0].exp_id if worker.inflight else None,
            )
            if worker.inflight is not None:
                task, attempt, start = worker.inflight
                if attempt < self.retry.max_task_reexecutions and not (
                    stop_on_failure and failed
                ):
                    self.stats.task_reexecutions += 1
                    get_registry().counter("task_reexecutions").inc()
                    delayed.append(
                        (
                            now + self.retry.reexecution_backoff(attempt),
                            task,
                            attempt + 1,
                        )
                    )
                else:
                    crash_failure(task, attempt, exitcode, cause, now - start)
            self._maybe_replace(work_remaining())

        # warm pool: spawned once, fed until the queue drains
        for _ in range(min(self.jobs, len(tasks))):
            self._spawn()

        try:
            while pending or delayed or any(
                w.inflight is not None for w in self._workers.values()
            ):
                now = time.monotonic()
                if delayed:
                    for entry in [d for d in delayed if d[0] <= now]:
                        delayed.remove(entry)
                        pending.append((entry[1], entry[2]))
                if stop_on_failure and failed:
                    pending.clear()
                    delayed.clear()
                if not self._workers:
                    if work_remaining():
                        self._degrade(pending, delayed, record, stop_on_failure)
                    break
                for worker in list(self._workers.values()):
                    if not pending:
                        break
                    if worker.inflight is None:
                        task, attempt = pending.popleft()
                        try:
                            worker.conn.send((task, attempt))
                        except (BrokenPipeError, OSError):
                            pending.appendleft((task, attempt))
                            continue  # the EOF path below reaps it
                        worker.inflight = (task, attempt, time.monotonic())
                ready = multiprocessing.connection.wait(
                    list(self._workers), timeout=self.poll_interval
                )
                now = time.monotonic()
                for conn in ready:
                    worker = self._workers.get(conn)
                    if worker is None:
                        continue
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        on_worker_death(worker)
                        continue
                    if msg[0] == "hb":
                        worker.last_beat = now
                    elif msg[0] == "done":
                        _, exp_id, attempt, status, payload, elapsed = msg
                        task = worker.inflight[0] if worker.inflight else None
                        worker.inflight = None
                        worker.last_beat = now
                        record(
                            self._outcome_from_payload(
                                exp_id,
                                attempt,
                                status,
                                payload,
                                elapsed,
                                collect=bool(task and task.collect),
                            )
                        )
                now = time.monotonic()
                self._enforce_timeouts(now, record, work_remaining)
                self._enforce_heartbeats(now, on_worker_death, work_remaining)
        except BaseException:
            # an exception in the parent (a watchdog alarm, Ctrl-C)
            # must not leave orphaned workers computing
            self._shutdown(kill=True)
            raise
        self._shutdown()
        return outcomes

    def starmap(self, fn: Callable, tasks: Iterable[Sequence]) -> list:
        """``[fn(*args) for args in tasks]`` on the workers, in task order.

        Results come back in task order whichever worker finished
        first, so a sharded reduction that folds them by index is
        deterministic at any ``jobs``.  Shards get :meth:`run`'s
        supervision: a shard whose worker dies is re-executed, and an
        exhausted restart budget degrades to serial.

        When observability is active in the parent (:func:`repro.obs.
        capture` or an enabled module-level registry/bus), each shard
        runs under a fresh capture and its metric snapshot and trace
        events are replayed into the parent's registry/bus **in task
        order** — so ``jobs`` cannot reorder or lose a count or an
        event relative to the serial loop.

        A failing shard re-raises its original exception (the
        lowest-index one when several fail), as the serial loop would;
        ``run_experiment``'s :class:`~repro.errors.SimulationError`
        retry therefore fires for pooled runs too.  Supervision events
        go to the caller's active bus, so they show up in a trace only
        when a worker actually crashed.
        """
        collect = obs_active()
        shards = [
            ShardTask(f"shard-{i}", fn, tuple(args), collect)
            for i, args in enumerate(tasks)
        ]
        outcomes = self.run(shards)
        registry, bus = get_registry(), get_bus()
        results = []
        for shard in shards:
            outcome = outcomes[shard.exp_id]
            if not outcome.ok:
                raise outcome.exception or ExperimentError(
                    f"{outcome.error_type}: {outcome.error}"
                )
            if collect:
                registry.absorb(outcome.metrics)
                replay(outcome.events, bus)
            results.append(outcome.result)
        return results

    # ------------------------------------------------------------------
    def _outcome_from_payload(
        self, exp_id, attempt, status, payload, elapsed, *, collect
    ) -> ExperimentOutcome:
        if status == "ok":
            metrics = events = None
            result = payload
            if collect:
                result, metrics, events = payload
            return ExperimentOutcome(
                exp_id,
                "ok",
                result=result,
                elapsed_s=elapsed,
                metrics=metrics,
                events=events,
                attempts=attempt + 1,
            )
        error_type, error, exception = payload
        return ExperimentOutcome(
            exp_id,
            "failed",
            error_type=error_type,
            error=error,
            elapsed_s=elapsed,
            attempts=attempt + 1,
            exception=exception,
        )

    def _enforce_timeouts(self, now, record, work_remaining) -> None:
        """Parent-side backstop: kill workers past timeout + kill_grace.

        A parent kill is a budget decision, exactly like the in-worker
        watchdog — the task is *not* re-executed.
        """
        if self.timeout is None:
            return
        budget = self.timeout + self.kill_grace
        for worker in list(self._workers.values()):
            if worker.inflight is None:
                continue
            task, attempt, start = worker.inflight
            if now - start <= budget:
                continue
            worker.inflight = None  # consumed: do not requeue
            self._reap(worker, kill=True)
            self.stats.parent_kills += 1
            get_registry().counter("worker_parent_kills").inc()
            get_bus().emit(
                NO_SIM_TIME,
                "worker_crashed",
                -1,
                worker=worker.worker_id,
                cause="timeout",
                exp_id=task.exp_id,
            )
            record(
                ExperimentOutcome(
                    task.exp_id,
                    "failed",
                    error_type="ExperimentTimeoutError",
                    error=(
                        f"experiment {task.exp_id!r} exceeded its "
                        f"{self.timeout:g}s wall-clock budget; "
                        f"worker process killed by the parent "
                        f"(in-worker watchdog did not fire)"
                    ),
                    elapsed_s=now - start,
                    exit_cause="timeout",
                    attempts=attempt + 1,
                )
            )
            self._maybe_replace(work_remaining())

    def _enforce_heartbeats(self, now, on_worker_death, work_remaining) -> None:
        """Declare silent workers hung; their task is re-executed."""
        if self.heartbeat_timeout is None:
            return
        for worker in list(self._workers.values()):
            if now - worker.last_beat <= self.heartbeat_timeout:
                continue
            if worker.inflight is None and not work_remaining():
                continue  # idle pool winding down: nothing depends on it
            self.stats.heartbeat_timeouts += 1
            get_registry().counter("worker_heartbeat_timeouts").inc()
            on_worker_death(worker, cause="heartbeat_timeout", kill=True)

    def _degrade(self, pending, delayed, record, stop_on_failure) -> None:
        """The last rung: run everything left serially in the parent.

        Reached only when the restart budget is spent and no worker
        survives.  Chaos does not apply here (it targets workers), so a
        degraded run always terminates.
        """
        self.stats.degraded_to_serial = 1
        get_registry().counter("degraded_to_serial").inc()
        remaining = list(pending) + [(d[1], d[2]) for d in sorted(delayed, key=lambda d: d[0])]
        pending.clear()
        delayed.clear()
        get_bus().emit(
            NO_SIM_TIME,
            "degraded_to_serial",
            -1,
            remaining=len(remaining),
            restarts_used=self._restarts_used,
        )
        for task, attempt in remaining:
            start = time.monotonic()
            status, payload = _execute_task(task)
            outcome = self._outcome_from_payload(
                task.exp_id,
                attempt,
                status,
                payload,
                time.monotonic() - start,
                collect=task.collect,
            )
            record(outcome)
            if stop_on_failure and outcome.status == "failed":
                break

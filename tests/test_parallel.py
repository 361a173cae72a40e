"""Parallel execution layer: the supervised pool's ordered shard map,
the content-addressed result cache, the process-level executor, and the
CLI's --jobs/--cache wiring.

The load-bearing contract everywhere: rows are a function of
(experiment, quick, seed, fixed shard count) — never of --jobs, the
pool, or the cache.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import threading
import time

import pytest

from repro.cli import main
from repro.errors import (
    ExperimentTimeoutError,
    InvalidParameterError,
    SimulationError,
)
from repro.experiments import EXPERIMENTS, register_experiment, run_experiment
from repro.experiments.registry import _SPECS
from repro.faults import ChaosPlan
from repro.obs import capture, get_bus, get_registry, jsonl_line
from repro.parallel import (
    ParallelExecutor,
    ResultCache,
    RetryPolicy,
    SupervisedPool,
    cache_key,
    scan_cache_dir,
)
from repro.parallel.supervisor import ShardTask


@pytest.fixture
def scratch(monkeypatch):
    """Register throwaway experiments; deregister them afterwards.

    Workers inherit these via fork, so executor tests can use
    registrations made in the test process.
    """
    registered: list[str] = []

    def _register(exp_id, runner, **kwargs):
        register_experiment(exp_id, f"test double {exp_id}", runner, **kwargs)
        registered.append(exp_id)
        return exp_id

    yield _register
    for exp_id in registered:
        _SPECS.pop(exp_id, None)
        EXPERIMENTS.pop(exp_id, None)


def _square(x):
    return x * x


def _metered_square(x):
    """A shard that counts and traces, for the obs-replay check."""
    get_registry().counter("squares").inc(x)
    get_bus().emit(float(x), "commit", x, value=x * x)
    return x * x


def _sleepy_square(x):
    time.sleep(30)
    return x * x


class _FailOnce:
    """Shard body raising SimulationError on its first execution only
    (a marker file survives the worker process boundary)."""

    def __init__(self, path):
        self.path = path

    def __call__(self, x):
        if not self.path.exists():
            self.path.write_text("failed\n")
            raise SimulationError("transient shard fault")
        return x * x


class _ShardedRunner:
    """Experiment runner that fans its work out over ``pool``."""

    def __init__(self, shard):
        self.shard = shard

    def __call__(self, pool=None, **kw):
        tasks = [(i,) for i in range(4)]
        if pool is None:
            return [{"x": self.shard(*t)} for t in tasks]
        return [{"x": x} for x in pool.starmap(self.shard, tasks)]


def _rows(**kw):
    return [{"x": 1}]


def _fail(**kw):
    raise SimulationError("injected failure")


def _die(**kw):  # worker vanishes without sending a result
    os._exit(3)


def _slow_rows(**kw):
    time.sleep(0.6)
    return [{"x": "slow"}]


def _hang(**kw):  # killable by the in-worker SIGALRM watchdog
    while True:
        time.sleep(0.02)


def _stubborn_hang(**kw):
    """A SIGALRM-proof hang: swallows the watchdog's exception.

    Only the parent's process-level kill can stop this — the regression
    case for the old silently-unenforced timeout.
    """
    while True:
        try:
            time.sleep(0.02)
        except BaseException:
            pass


class _MarkingRunner:
    """Picklable runner that appends a line to a file per invocation,
    so call counts survive the process boundary."""

    def __init__(self, path):
        self.path = str(path)

    def __call__(self, **kw):
        with open(self.path, "a") as fh:
            fh.write("run\n")
        return [{"x": 1}]


def _pid_rows(**kw):
    return [{"pid": os.getpid()}]


def _shard_pid(i):
    return os.getpid()


def _pid_sharded(pool=None, **kw):
    """Reports the process it ran in and those its shards ran in."""
    return [{"pid": os.getpid(), "shards": pool.starmap(_shard_pid, [(0,), (1,)])}]


def _interrupt():
    raise KeyboardInterrupt


def _runs(path) -> int:
    try:
        return path.read_text().count("run")
    except FileNotFoundError:
        return 0


def _cached_ids(cache_dir) -> set[str]:
    """Experiment ids with a checksum-verified entry under ``cache_dir``."""
    return {
        r.path.name.rsplit("-", 1)[0]
        for r in scan_cache_dir(cache_dir)
        if r.status == "ok"
    }


# ---------------------------------------------------------------------------
class TestPools:
    def test_process_pool_preserves_order(self):
        tasks = [(i,) for i in range(20)]
        for jobs in (1, 2):
            assert SupervisedPool(jobs).starmap(_square, tasks) == [
                i * i for i in range(20)
            ]
        assert SupervisedPool(2).starmap(_square, []) == []
        # under an active capture, worker metrics and events replay in
        # task order: byte-identical to the serial loop
        with capture() as serial:
            expected = [_metered_square(*t) for t in tasks]
        with capture() as pooled:
            assert SupervisedPool(2).starmap(_metered_square, tasks) == expected
        assert pooled.snapshot() == serial.snapshot()
        assert [jsonl_line(e) for e in pooled.events] == [
            jsonl_line(e) for e in serial.events
        ]

    def test_jobs_validation(self):
        with pytest.raises(InvalidParameterError):
            SupervisedPool(0)
        with pytest.raises(InvalidParameterError):
            ParallelExecutor(0)

    def test_shard_error_is_reraised_and_retried(self, scratch, tmp_path):
        marker = tmp_path / "failed-once"
        with pytest.raises(SimulationError, match="transient shard fault"):
            SupervisedPool(2).starmap(_FailOnce(marker), [(i,) for i in range(4)])
        # run_experiment's SimulationError retry fires for pooled runs
        marker.unlink()
        scratch("zz_shard_retry", _ShardedRunner(_FailOnce(marker)))
        result = run_experiment(
            "zz_shard_retry", retry=RetryPolicy(retries=1), pool=SupervisedPool(2)
        )
        assert result.rows == [{"x": i * i} for i in range(4)]

    def test_parent_exception_reaps_shard_workers(self, scratch):
        # the watchdog fires in the parent mid-starmap: no shard worker
        # may outlive it
        scratch("zz_shard_hang", _ShardedRunner(_sleepy_square))
        pool = SupervisedPool(2)
        with pytest.raises(ExperimentTimeoutError):
            run_experiment("zz_shard_hang", timeout=0.5, pool=pool)
        assert not pool._workers
        assert multiprocessing.active_children() == []

    def test_killed_shard_worker_is_reexecuted(self):
        tasks = [(i,) for i in range(3)]
        # every shard's first attempt is SIGKILLed, the re-execution is safe
        pool = SupervisedPool(
            2, chaos=ChaosPlan(seed=7, kill_rate=1.0, safe_attempt=1)
        )
        assert pool.starmap(_square, tasks) == [_square(*t) for t in tasks]
        assert pool.stats.worker_crashes == len(tasks)
        assert pool.stats.task_reexecutions == len(tasks)


# ---------------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 64)
        rows = [
            {"ratio": 0.1 + 0.2, "n": 3, "label": "DET", "tiny": 5e-324},
            {"ratio": 2.0 / 3.0, "n": 4, "label": "OPT", "tiny": 1e308},
        ]
        assert cache.get_rows("zz", {"a": 1}, quick=True, seed=3) is None
        cache.put_rows("zz", rows, {"a": 1}, quick=True, seed=3)
        hit = cache.get_rows("zz", {"a": 1}, quick=True, seed=3)
        assert hit == rows  # bit-exact floats: JSON shortest-repr round-trip

    def test_key_sensitivity(self):
        base = dict(quick=True, seed=3, fingerprint="a" * 64)
        k = cache_key("zz", {"a": 1}, **base)
        assert cache_key("zz", {"a": 2}, **base) != k
        assert cache_key("zz2", {"a": 1}, **base) != k
        assert cache_key("zz", {"a": 1}, **{**base, "seed": 4}) != k
        assert cache_key("zz", {"a": 1}, **{**base, "quick": False}) != k
        assert (
            cache_key("zz", {"a": 1}, **{**base, "fingerprint": "b" * 64})
            != k
        )
        # kwarg ordering must NOT matter
        assert cache_key("zz", {"b": 2, "a": 1}, **base) == cache_key(
            "zz", {"a": 1, "b": 2}, **base
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 64)
        cache.put_rows("zz", [{"x": 1}], {}, quick=False, seed=None)
        (entry,) = list(tmp_path.glob("zz-*.json"))
        entry.write_text("{ not json")
        assert cache.get_rows("zz", {}, quick=False, seed=None) is None

    def test_unserializable_rows_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f" * 64)
        assert (
            cache.put_rows("zz", [{"x": object()}], {}, quick=False, seed=None)
            is None
        )
        assert list(tmp_path.glob("*.json")) == []

    def test_run_experiment_cache_hit(self, scratch, tmp_path):
        calls = []

        def runner(**kw):
            calls.append(1)
            return [{"v": 0.1 + 0.2, "n": 7}]

        exp_id = scratch("zz_cached", runner)
        cache = ResultCache(tmp_path)
        first = run_experiment(exp_id, cache=cache)
        second = run_experiment(exp_id, cache=cache)
        assert len(calls) == 1
        assert not first.cached and second.cached
        assert second.rows == first.rows
        assert second.params == first.params
        assert second.title == first.title

    def test_failures_never_cached(self, scratch, tmp_path):
        exp_id = scratch("zz_fail", _fail)
        cache = ResultCache(tmp_path)
        with pytest.raises(SimulationError):
            run_experiment(exp_id, cache=cache)
        assert list(tmp_path.glob(f"{exp_id}-*.json")) == []


# ---------------------------------------------------------------------------
class TestExecutor:
    def test_submission_order_out_completion_order_hook(self, scratch):
        scratch("zz_slow", _slow_rows)
        scratch("zz_fast", _rows)
        completion: list[str] = []
        outcomes = ParallelExecutor(2).run(
            ["zz_slow", "zz_fast"],
            on_complete=lambda o: completion.append(o.exp_id),
        )
        assert [o.exp_id for o in outcomes] == ["zz_slow", "zz_fast"]
        assert completion == ["zz_fast", "zz_slow"]
        assert all(o.ok for o in outcomes)
        assert outcomes[1].result.rows == [{"x": 1}]

    # a lone task at jobs=2 would run in the parent (see TestInParent),
    # so the worker-only tests below add a trivial second task
    def test_worker_crash_reported_not_hung(self, scratch):
        exp_id = scratch("zz_die", _die)
        outcome, _ = ParallelExecutor(2).run([exp_id, scratch("zz_die_ok", _rows)])
        assert outcome.status == "failed"
        assert "exited without a result" in outcome.error
        assert "exit code 3" in outcome.error

    def test_in_worker_watchdog_fires(self, scratch):
        """Workers run on their own main thread, so SIGALRM is armed."""
        exp_id = scratch("zz_hang", _hang)
        outcome, _ = ParallelExecutor(2, timeout=0.2, kill_grace=5.0).run(
            [exp_id, scratch("zz_hang_ok", _rows)]
        )
        assert outcome.error_type == "ExperimentTimeoutError"
        assert "killed by the parent" not in outcome.error

    def test_parent_kills_sigalrm_proof_hang(self, scratch):
        """Regression: a runner that swallows the watchdog exception used
        to hang forever; the parent must kill the worker process."""
        exp_id = scratch("zz_stubborn", _stubborn_hang)
        start = time.monotonic()
        outcome, _ = ParallelExecutor(2, timeout=0.3, kill_grace=0.3).run(
            [exp_id, scratch("zz_stubborn_ok", _rows)]
        )
        assert time.monotonic() - start < 10.0
        assert outcome.status == "failed"
        assert outcome.error_type == "ExperimentTimeoutError"
        assert "killed by the parent" in outcome.error

    def test_stop_on_failure_skips_unstarted(self, scratch):
        scratch("zz_f1", _fail)
        scratch("zz_ok1", _rows)
        outcomes = ParallelExecutor(1).run(
            ["zz_f1", "zz_ok1"], stop_on_failure=True
        )
        assert [o.status for o in outcomes] == ["failed", "skipped"]


# ---------------------------------------------------------------------------
class TestInParent:
    """The pool, not its callers, decides parent vs workers."""

    def test_jobs_one_spawns_no_worker(self, scratch):
        ids = [scratch("zz_pid_a", _pid_rows), scratch("zz_pid_b", _pid_rows)]
        outcomes = ParallelExecutor(1).run(ids)
        assert [o.result.rows for o in outcomes] == [[{"pid": os.getpid()}]] * 2
        assert SupervisedPool(1).starmap(_shard_pid, [(0,), (1,)]) == [
            os.getpid()
        ] * 2

    def test_lone_task_in_parent_shards_on_workers(self, scratch):
        exp_id = scratch("zz_pid_sharded", _pid_sharded)
        (outcome,) = ParallelExecutor(2).run([exp_id])
        (row,) = outcome.result.rows
        assert row["pid"] == os.getpid()
        assert len(row["shards"]) == 2
        assert os.getpid() not in row["shards"]

    def test_lone_task_with_chaos_runs_on_worker(self, scratch):
        exp_id = scratch("zz_pid_chaos", _pid_rows)
        (outcome,) = ParallelExecutor(
            2, chaos=ChaosPlan(seed=1, kill_rate=0.0)
        ).run([exp_id])
        assert outcome.ok
        assert outcome.result.rows[0]["pid"] != os.getpid()

    def test_ctrl_c_in_parent_propagates(self):
        with pytest.raises(KeyboardInterrupt):
            SupervisedPool(1).run([ShardTask("shard-0", _interrupt, ())])

    def test_ctrl_c_on_degraded_path_propagates(self):
        # the lone worker is SIGKILLed, no replacement is allowed, so the
        # re-execution lands on the parent's degraded path
        pool = SupervisedPool(
            2,
            retry=RetryPolicy(max_worker_restarts=0, restart_backoff=0.0),
            chaos=ChaosPlan(seed=1, kill_rate=1.0),
        )
        with pytest.raises(KeyboardInterrupt):
            pool.run([ShardTask("shard-0", _interrupt, ())])
        assert pool.stats.degraded_to_serial == 1
        assert not pool._workers


# ---------------------------------------------------------------------------
class TestWatchdogOffMainThread:
    def test_warns_and_still_runs(self, scratch, caplog):
        """Satellite 1: off the main thread the SIGALRM watchdog cannot
        arm — that must be a logged warning, never a silent no-op."""
        exp_id = scratch("zz_threaded", _rows)
        results: list = []
        with caplog.at_level(
            logging.WARNING, logger="repro.experiments.registry"
        ):
            t = threading.Thread(
                target=lambda: results.append(
                    run_experiment(exp_id, timeout=5.0)
                )
            )
            t.start()
            t.join()
        assert results and results[0].rows == [{"x": 1}]
        assert any(
            "SIGALRM watchdog cannot arm" in rec.message
            for rec in caplog.records
        )


# ---------------------------------------------------------------------------
class TestCLIParallel:
    def test_jobs_validation(self, capsys):
        assert main(["fig2a", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_invariance_of_json_rows(self, tmp_path):
        """The acceptance check: --jobs changes wall clock, never rows."""
        out1, out4 = tmp_path / "j1", tmp_path / "j4"
        args = ["fig2a", "tab_ratios", "--quick", "--seed", "3", "--json"]
        assert main([*args, "--jobs", "4", "--out", str(out4)]) == 0
        assert main([*args, "--jobs", "1", "--out", str(out1)]) == 0
        for exp_id in ("fig2a", "tab_ratios"):
            a = (out1 / f"{exp_id}.json").read_text()
            b = (out4 / f"{exp_id}.json").read_text()
            assert a == b, f"{exp_id} rows differ between --jobs 1 and 4"

    def test_parallel_keep_going_checkpoint_and_resume(
        self, scratch, tmp_path
    ):
        mark_a, mark_c = tmp_path / "a.log", tmp_path / "c.log"
        scratch("zz_pa", _MarkingRunner(mark_a))
        scratch("zz_pb", _fail)
        scratch("zz_pc", _MarkingRunner(mark_c))
        cache_dir = tmp_path / "cache"
        batch = ["zz_pa", "zz_pb", "zz_pc", "--jobs", "2", "--keep-going",
                 "--cache", "--cache-dir", str(cache_dir)]
        assert main(batch) == 1  # zz_pb failed, others completed
        # failures are never cached
        assert _cached_ids(cache_dir) == {"zz_pa", "zz_pc"}
        assert _runs(mark_a) == 1 and _runs(mark_c) == 1
        # rerun: completed experiments are cache hits, the failure re-runs
        assert main(batch) == 1
        assert _runs(mark_a) == 1 and _runs(mark_c) == 1

    def test_killed_batch_resumes_where_it_stopped(self, scratch, tmp_path):
        """A batch interrupted mid-run (the cache holds its completed
        prefix) must rerun exactly the unfinished experiments."""
        mark_a, mark_b = tmp_path / "a.log", tmp_path / "b.log"
        scratch("zz_ra", _MarkingRunner(mark_a))
        scratch("zz_rb", _MarkingRunner(mark_b))
        cache_dir = tmp_path / "cache"
        cached = ["--cache", "--cache-dir", str(cache_dir)]
        # first invocation "dies" after completing only zz_ra
        assert main(["zz_ra", *cached]) == 0
        assert main(["zz_ra", "zz_rb", "--jobs", "2", *cached]) == 0
        assert _runs(mark_a) == 1  # not re-run
        assert _runs(mark_b) == 1
        assert _cached_ids(cache_dir) == {"zz_ra", "zz_rb"}

    def test_sigkill_mid_checkpoint_write_resumes_byte_identical(
        self, scratch, tmp_path, capsys
    ):
        """SIGKILL during a cache-entry write leaves the previous entry
        (here: none) plus temp litter, never a torn entry.  Rerunning
        the same command recomputes exactly that experiment, and its
        rows are byte-identical to an uninterrupted run
        (docs/ROBUSTNESS.md)."""
        marks = [tmp_path / f"{n}.log" for n in "abc"]
        ids = [
            scratch(f"zz_tk{n}", _MarkingRunner(m))
            for n, m in zip("abc", marks)
        ]
        clean_out = tmp_path / "clean"
        assert main([*ids, "--json", "--out", str(clean_out)]) == 0
        # interrupted run: two experiments done, then killed while
        # writing the second one's entry (before os.replace)
        cache_dir = tmp_path / "cache"
        cached = ["--cache", "--cache-dir", str(cache_dir)]
        assert main([ids[0], ids[1], *cached]) == 0
        (entry,) = cache_dir.glob(f"{ids[1]}-*.json")
        entry.with_name(entry.name + ".tmp.4242").write_text('{"vers')
        entry.unlink()
        assert _cached_ids(cache_dir) == {ids[0]}
        # rerun: the lost entry's experiment re-runs, the stored one is
        # a cache hit, and every row matches the uninterrupted run
        resumed_out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(
            [*ids, "--jobs", "2", *cached, "--json", "--out", str(resumed_out)]
        ) == 0
        assert "(cache hit)" in capsys.readouterr().out
        assert _runs(marks[0]) == 2  # clean run + interrupted run only
        assert _runs(marks[1]) == 3  # re-run after the lost entry
        for exp_id in ids:
            assert (resumed_out / f"{exp_id}.json").read_bytes() == (
                clean_out / f"{exp_id}.json"
            ).read_bytes()

    def test_cache_flag_roundtrip(self, scratch, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        mark = tmp_path / "m.log"
        scratch("zz_cc", _MarkingRunner(mark))
        args = ["zz_cc", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        assert main(args) == 0
        assert _runs(mark) == 1
        assert "(cache hit)" in capsys.readouterr().out
        # --no-cache forces a re-run
        assert main([*args, "--no-cache"]) == 0
        assert _runs(mark) == 2


# ---------------------------------------------------------------------------
class TestShardedHarness:
    def test_pool_invariance_and_identity(self):
        from repro.distributions import ExponentialLengths
        from repro.rngutil import seedseq_for
        from repro.synthetic import SyntheticHarness

        dist = ExponentialLengths(500.0)
        harness = SyntheticHarness(2000.0, 500.0)
        serial = harness.run(dist, 4000, seedseq_for(3, "t"), n_shards=4)
        pooled = harness.run(
            dist, 4000, seedseq_for(3, "t"), n_shards=4, pool=SupervisedPool(2)
        )
        for label, acc in serial.stats.items():
            assert pooled.stats[label].mean == acc.mean  # bit-equal
            assert pooled.stats[label].sem == acc.sem

    def test_live_generator_rejected_for_sharding(self, rng):
        from repro.distributions import ExponentialLengths
        from repro.synthetic import SyntheticHarness

        harness = SyntheticHarness(2000.0, 500.0)
        with pytest.raises(InvalidParameterError, match="SeedSequence"):
            harness.run(
                ExponentialLengths(500.0), 1000, rng, n_shards=4
            )

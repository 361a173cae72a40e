"""Crash-tolerance layer: the result cache as the crash-recovery record,
seeded chaos, supervised worker pool, and the chaos determinism gate.

The headline contract under test: with any seeded chaos schedule that
lets the run complete, result rows are byte-identical to the fault-free
run — supervision decides only where and how often a task body
executes, never what it computes.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.cli import main
from repro.errors import FaultInjectionError
from repro.experiments import EXPERIMENTS, register_experiment
from repro.experiments.registry import _SPECS
from repro.faults import ChaosPlan, corrupt_bytes
from repro.obs import capture
from repro.parallel import (
    ParallelExecutor,
    ResultCache,
    RetryPolicy,
    atomic_write_text,
    scan_cache_dir,
)
from repro.parallel.cache_cli import cache_main
from repro.parallel.supervisor import classify_exit


@pytest.fixture
def scratch(monkeypatch):
    """Register throwaway experiments; workers inherit them via fork."""
    registered: list[str] = []

    def _register(exp_id, runner, **kwargs):
        register_experiment(exp_id, f"test double {exp_id}", runner, **kwargs)
        registered.append(exp_id)
        return exp_id

    yield _register
    for exp_id in registered:
        _SPECS.pop(exp_id, None)
        EXPERIMENTS.pop(exp_id, None)


def _rows(**kw):
    return [{"x": 1}]


def _die(**kw):
    os._exit(3)


class _SeededRows:
    """Picklable runner whose rows depend only on the seed."""

    def __call__(self, seed=None, **kw):
        return [{"seed": seed, "v": (seed or 0) * 3 + 1}]


# ---------------------------------------------------------------------------
class TestAtomicWrite:
    def test_roundtrip_and_replace(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"
        # no temp litter left behind on success
        assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
class TestJournal:
    """The result cache is the only record of finished work: entries
    round-trip, damage costs only the damaged entry (a miss, then a
    rewrite), and another configuration is another key."""

    def _cache(self, tmp_path):
        return ResultCache(tmp_path / "cache", fingerprint="f" * 64)

    def test_roundtrip(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put_rows("fig2a", [{"x": 1.5}], {}, quick=True, seed=7)
        cache.put_rows("fig2b", [{"x": 2}], {}, quick=True, seed=7)
        cache.put_rows("fig2a", [{"x": 9.0}], {}, quick=True, seed=7)
        # one entry per key, the latest write wins
        assert len(list(cache.root.glob("fig2a-*.json"))) == 1
        assert cache.get_rows("fig2a", {}, quick=True, seed=7) == [{"x": 9.0}]
        assert cache.get_rows("fig2b", {}, quick=True, seed=7) == [{"x": 2}]
        assert [r.status for r in cache.scan()] == ["ok", "ok"]

    def test_torn_tail_truncated_to_last_durable_record(self, tmp_path):
        """A truncated entry is a miss; the rerun rewrites it and leaves
        every other entry alone."""
        cache = self._cache(tmp_path)
        cache.put_rows("a", [{"x": 1}], {}, quick=False, seed=None)
        cache.put_rows("b", [{"x": 2}], {}, quick=False, seed=None)
        (entry,) = cache.root.glob("b-*.json")
        clean = entry.read_bytes()
        entry.write_bytes(clean[: len(clean) // 2])
        assert cache.get_rows("b", {}, quick=False, seed=None) is None
        assert cache.get_rows("a", {}, quick=False, seed=None) == [{"x": 1}]
        cache.put_rows("b", [{"x": 2}], {}, quick=False, seed=None)
        assert entry.read_bytes() == clean
        assert cache.get_rows("b", {}, quick=False, seed=None) == [{"x": 2}]

    def test_bitflip_drops_from_damage_onward(self, tmp_path):
        """Bit rot in one entry costs that entry only."""
        cache = self._cache(tmp_path)
        for i in range(6):
            cache.put_rows(f"e{i}", [{"i": i}], {}, quick=False, seed=1)
        (entry,) = cache.root.glob("e3-*.json")
        entry.write_bytes(entry.read_bytes().replace(b'"i"', b'"X"', 1))
        hits = {
            f"e{i}": cache.get_rows(f"e{i}", {}, quick=False, seed=1)
            for i in range(6)
        }
        assert [e for e, rows in hits.items() if rows is None] == ["e3"]

    def test_incompatible_config_rotated_aside(self, tmp_path):
        """A different seed is a different key: it recomputes, and the
        old configuration's entry stays untouched."""
        cache = self._cache(tmp_path)
        cache.put_rows("a", [{"x": 1}], {}, quick=True, seed=1)
        (old,) = cache.root.glob("a-*.json")
        before = old.read_bytes()
        assert cache.get_rows("a", {}, quick=True, seed=2) is None
        cache.put_rows("a", [{"x": 2}], {}, quick=True, seed=2)
        assert len(list(cache.root.glob("a-*.json"))) == 2
        assert old.read_bytes() == before
        assert cache.get_rows("a", {}, quick=True, seed=1) == [{"x": 1}]

    def test_recovery_emits_event_and_counter(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put_rows("a", [{"x": 1}], {}, quick=False, seed=None)
        (entry,) = cache.root.glob("a-*.json")
        corrupt_bytes(entry, seed=5)
        with capture() as cap:
            assert cache.get_rows("a", {}, quick=False, seed=None) is None
        counters = cap.snapshot()["counters"]
        assert counters["cache_corrupt"] == 1
        assert counters["cache_misses"] == 1
        (event,) = [e for e in cap.events if e.kind == "cache_miss"]
        assert event.detail["corrupt"] is True


# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_deterministic_and_seed_sensitive(self):
        plan = ChaosPlan(seed=42, kill_rate=0.5)
        draws = [plan.should_kill(f"e{i}", 0) for i in range(64)]
        assert draws == [
            ChaosPlan(seed=42, kill_rate=0.5).should_kill(f"e{i}", 0)
            for i in range(64)
        ]
        assert any(draws) and not all(draws)
        other = [
            ChaosPlan(seed=43, kill_rate=0.5).should_kill(f"e{i}", 0)
            for i in range(64)
        ]
        assert draws != other

    def test_safe_attempt_guarantees_termination(self):
        plan = ChaosPlan(seed=1, kill_rate=1.0, safe_attempt=2)
        assert plan.should_kill("e", 0) and plan.should_kill("e", 1)
        assert not plan.should_kill("e", 2)
        assert not plan.should_stop("e", 2)

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            ChaosPlan(seed=1, kill_rate=1.5)
        with pytest.raises(FaultInjectionError):
            ChaosPlan(seed=1, safe_attempt=0)
        with pytest.raises(FaultInjectionError):
            ChaosPlan.from_dict({"seed": 1, "bogus": 2})

    def test_roundtrip(self):
        plan = ChaosPlan(seed=9, kill_rate=0.3, stop_rate=0.1)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan


# ---------------------------------------------------------------------------
class TestSupervisedPool:
    def test_classify_exit(self):
        assert classify_exit(-signal.SIGKILL) == "signal:SIGKILL"
        assert classify_exit(0) == "clean"
        assert classify_exit(3) == "exit:3"
        assert classify_exit(None) == "unknown"

    def test_crash_reexecution_budget_and_exit_cause(self, scratch):
        """A worker that always dies exhausts the re-execution budget and
        the outcome reports the classified cause."""
        exp_id = scratch("zz_chaos_die", _die)
        executor = ParallelExecutor(
            2, retry=RetryPolicy(max_task_reexecutions=1, restart_backoff=0.0)
        )
        # a second task keeps the dying one off the in-parent path
        outcome, _ = executor.run([exp_id, scratch("zz_chaos_ok", _rows)])
        assert outcome.status == "failed"
        assert outcome.exit_cause == "exit:3"
        assert outcome.attempts == 2  # original + 1 re-execution
        assert executor.stats.worker_crashes == 2
        assert executor.stats.task_reexecutions == 1

    def test_chaos_kills_are_survived(self, scratch):
        """Seeded SIGKILLs: every task completes and rows match the
        fault-free run; crash/restart counters are populated."""
        runner = _SeededRows()
        ids = [scratch(f"zz_cs{i}", runner) for i in range(6)]
        plan = ChaosPlan(seed=7, kill_rate=0.6, safe_attempt=2)
        assert any(plan.should_kill(i, 0) for i in ids)  # chaos actually bites
        executor = ParallelExecutor(
            2,
            seed=11,
            retry=RetryPolicy(max_task_reexecutions=2, restart_backoff=0.0),
            chaos=plan,
        )
        outcomes = executor.run(ids)
        assert [o.status for o in outcomes] == ["ok"] * 6
        baseline = ParallelExecutor(2, seed=11).run(ids)
        assert [o.result.rows for o in outcomes] == [
            o.result.rows for o in baseline
        ]
        assert executor.stats.worker_crashes > 0
        assert executor.stats.worker_restarts > 0

    def test_restart_budget_degrades_to_serial(self, scratch):
        """With no restart budget the pool empties and the remaining
        tasks still complete — serially, in the parent."""
        runner = _SeededRows()
        ids = [scratch(f"zz_dg{i}", runner) for i in range(4)]
        plan = ChaosPlan(seed=3, kill_rate=1.0, safe_attempt=1)
        executor = ParallelExecutor(
            2,
            seed=5,
            retry=RetryPolicy(
                max_task_reexecutions=1,
                max_worker_restarts=0,
                restart_backoff=0.0,
            ),
            chaos=plan,
        )
        with capture() as cap:
            outcomes = executor.run(ids)
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert executor.stats.degraded_to_serial == 1
        assert any(e.kind == "degraded_to_serial" for e in cap.events)
        baseline = ParallelExecutor(1, seed=5).run(ids)
        assert [o.result.rows for o in outcomes] == [
            o.result.rows for o in baseline
        ]

    def test_sigstop_hang_detected_by_heartbeat(self, scratch):
        """A SIGSTOPped worker stops heartbeating; the supervisor kills
        it and re-executes its task on a replacement."""
        runner = _SeededRows()
        exp_id = scratch("zz_stop", runner)
        plan = ChaosPlan(seed=2, kill_rate=0.0, stop_rate=1.0, safe_attempt=1)
        executor = ParallelExecutor(
            2,
            seed=1,
            retry=RetryPolicy(max_task_reexecutions=1, restart_backoff=0.0),
            chaos=plan,
            heartbeat_timeout=1.0,
        )
        start = time.monotonic()
        (outcome,) = executor.run([exp_id])
        assert time.monotonic() - start < 30.0
        assert outcome.status == "ok"
        assert executor.stats.heartbeat_timeouts >= 1


# ---------------------------------------------------------------------------
class TestKillMidCheckpointWrite:
    def test_sigkill_mid_write_resumes_byte_identical(
        self, scratch, tmp_path, capsys
    ):
        """A batch SIGKILLed mid-entry-write (modeled by what the kill
        leaves: no entry, only temp litter) recovers by rerunning the
        same command; the rerun's artifacts are byte-identical to an
        uninterrupted run."""
        runner = _SeededRows()
        ids = [scratch(f"zz_kr{i}", runner) for i in range(4)]
        out_clean, out_resumed = tmp_path / "clean", tmp_path / "resumed"
        cache_dir = tmp_path / "cache"
        cached = ["--cache", "--cache-dir", str(cache_dir)]
        base = [*ids, "--seed", "13", "--json"]
        assert main([*base, "--no-cache", "--out", str(out_clean)]) == 0
        # an interrupted run: completed prefix, then killed mid-write
        assert main([ids[0], ids[1], "--seed", "13", *cached]) == 0
        (entry,) = cache_dir.glob(f"{ids[1]}-*.json")
        entry.with_name(entry.name + ".tmp.4242").write_bytes(
            entry.read_bytes()[:10]
        )
        entry.unlink()
        capsys.readouterr()
        assert main([*base, *cached, "--out", str(out_resumed)]) == 0
        out = capsys.readouterr().out
        # ids[0] was a cache hit, everything else re-ran
        hits = [line for line in out.splitlines() if "(cache hit)" in line]
        assert len(hits) == 1 and hits[0].startswith(f"[{ids[0]} completed")
        for exp_id in ids:
            assert (out_resumed / f"{exp_id}.json").read_bytes() == (
                out_clean / f"{exp_id}.json"
            ).read_bytes()
        assert [r.status for r in scan_cache_dir(cache_dir)] == ["ok"] * 4


# ---------------------------------------------------------------------------
class TestChaosCLI:
    def test_chaos_run_matches_fault_free_serial(self, scratch, tmp_path,
                                                 capsys):
        """The acceptance gate in miniature: --jobs 4 --chaos over a
        cache holding one good and one damaged entry completes with
        rows byte-identical to the fault-free --jobs 1 run, rewrites
        the damaged entry, and the hit/corrupt and restart counts
        appear in the metrics snapshot and trace JSONL."""
        runner = _SeededRows()
        ids = [scratch(f"zz_cg{i}", runner) for i in range(5)]
        out_serial, out_chaos = tmp_path / "serial", tmp_path / "chaos"
        cache_dir = tmp_path / "cache"
        cached = ["--cache", "--cache-dir", str(cache_dir)]
        base = [*ids, "--seed", "3", "--json"]
        assert main(
            [*base, "--no-cache", "--jobs", "1", "--out", str(out_serial)]
        ) == 0

        # an interrupted prefix, then bit rot in its second entry
        assert main([ids[0], ids[1], "--seed", "3", *cached]) == 0
        (entry,) = cache_dir.glob(f"{ids[1]}-*.json")
        assert corrupt_bytes(entry, seed=5) > 0
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.jsonl"
        capsys.readouterr()
        assert main(
            [*base, *cached, "--jobs", "4", "--chaos", "1234",
             "--out", str(out_chaos),
             "--metrics-out", str(metrics), "--trace-out", str(trace)]
        ) == 0
        for exp_id in ids:
            assert (out_chaos / f"{exp_id}.json").read_bytes() == (
                out_serial / f"{exp_id}.json"
            ).read_bytes()
        # the damaged entry was a miss and has been rewritten
        assert [r.status for r in scan_cache_dir(cache_dir)] == ["ok"] * 5
        counters = json.loads(metrics.read_text())["counters"]
        assert counters.get("cache_hits", 0) >= 1
        assert counters.get("cache_corrupt") == 1
        # chaos at kill_rate 0.25 over 5 tasks with this seed must bite
        assert counters.get("worker_crashes", 0) > 0
        kinds = {
            json.loads(line)["kind"] for line in trace.read_text().splitlines()
        }
        assert "worker_crashed" in kinds

    def test_chaos_requires_jobs(self, scratch, capsys):
        exp_id = scratch("zz_cj", _rows)
        assert main([exp_id, "--chaos", "1"]) == 0
        assert "needs --jobs > 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
class TestCacheVerifyPrune:
    def _seed_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir, fingerprint="f" * 64)
        cache.put_rows("aa", [{"x": 1}], {}, quick=False, seed=None)
        cache.put_rows("bb", [{"x": 2}], {}, quick=False, seed=None)
        return cache_dir, cache

    def test_corrupt_entry_detected_and_pruned(self, tmp_path, capsys):
        cache_dir, cache = self._seed_cache(tmp_path)
        (entry,) = sorted(cache_dir.glob("bb-*.json"))
        corrupt_bytes(entry, seed=5)  # deliberate bit rot
        reports = scan_cache_dir(cache_dir)
        assert [r.status for r in reports] == ["ok", "corrupt"]
        assert cache.get_rows("bb", {}, quick=False, seed=None) is None

        assert cache_main(["verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and str(entry) in out

        assert cache_main(["prune", "--cache-dir", str(cache_dir)]) == 0
        assert not entry.exists()
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert cache_main(["verify", "--cache-dir", str(cache_dir)]) == 0

    def test_crc_mismatch_counts_as_corrupt_metric(self, tmp_path):
        cache_dir, cache = self._seed_cache(tmp_path)
        (entry,) = sorted(cache_dir.glob("aa-*.json"))
        payload = json.loads(entry.read_text())
        payload["rows"] = [{"x": 999}]  # rows swapped, crc now stale
        entry.write_text(json.dumps(payload))
        with capture() as cap:
            assert cache.get_rows("aa", {}, quick=False, seed=None) is None
        assert cap.snapshot()["counters"]["cache_corrupt"] == 1

    def test_verify_json_output(self, tmp_path, capsys):
        cache_dir, _ = self._seed_cache(tmp_path)
        assert cache_main(
            ["verify", "--cache-dir", str(cache_dir), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2 and payload["corrupt"] == 0

    def test_prune_sweeps_tmp_litter(self, tmp_path):
        cache_dir, _ = self._seed_cache(tmp_path)
        litter = cache_dir / "aa-deadbeef.json.tmp.12345"
        litter.write_text("partial")
        assert cache_main(["prune", "--cache-dir", str(cache_dir)]) == 0
        assert not litter.exists()

    def test_verify_reads_the_run_cache_dir_env(
        self, scratch, tmp_path, monkeypatch, capsys
    ):
        """``repro cache verify`` defaults to the directory runs write:
        ``$REPRO_CACHE_DIR`` when set."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        exp_id = scratch("zz_envdir", _rows)
        assert main([exp_id, "--cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_dir"] == str(tmp_path / "envcache")
        assert payload["entries"] == 1 and payload["ok"] == 1

    def test_cache_subcommand_dispatch(self, tmp_path, capsys):
        assert main(
            ["cache", "verify", "--cache-dir", str(tmp_path / "empty")]
        ) == 0
        assert "0 entries" in capsys.readouterr().out

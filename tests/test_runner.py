"""Hardened experiment runner: registration, watchdog, retries,
rerun-over-the-cache recovery, and the CLI's --keep-going failure
handling."""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.errors import (
    ExperimentError,
    ExperimentTimeoutError,
    InvalidParameterError,
    SimulationError,
)
from repro.experiments import EXPERIMENTS, register_experiment, run_experiment
from repro.experiments.registry import _SPECS
from repro.experiments.report import render_failures
from repro.parallel import RetryPolicy, scan_cache_dir


@pytest.fixture
def scratch(monkeypatch):
    """Register throwaway experiments; deregister them afterwards."""
    registered: list[str] = []

    def _register(exp_id, runner, **kwargs):
        register_experiment(
            exp_id, f"test double {exp_id}", runner, **kwargs
        )
        registered.append(exp_id)
        return exp_id

    yield _register
    for exp_id in registered:
        _SPECS.pop(exp_id, None)
        EXPERIMENTS.pop(exp_id, None)


def _rows(**kw):
    return [{"x": 1}]


def _cached(tmp_path) -> list[str]:
    """CLI flags for a per-test result cache under ``tmp_path``."""
    return ["--cache", "--cache-dir", str(tmp_path / "cache")]


def _entries(tmp_path, exp_id) -> list:
    """Cache entries stored for ``exp_id`` (all checksum-verified)."""
    return [
        r for r in scan_cache_dir(tmp_path / "cache")
        if r.path.name.startswith(f"{exp_id}-") and r.status == "ok"
    ]


def _fast_retry(retries: int) -> RetryPolicy:
    return RetryPolicy(retries=retries, backoff_base=0.001)


def _hang(**kw):  # killed only by the watchdog
    while True:
        time.sleep(0.02)


class TestRegistration:
    def test_register_and_run(self, scratch):
        exp_id = scratch("zz_double", _rows)
        assert exp_id in EXPERIMENTS
        result = run_experiment(exp_id)
        assert result.rows == [{"x": 1}]

    def test_shadowing_guard(self, scratch):
        scratch("zz_double", _rows)
        with pytest.raises(ExperimentError, match="already registered"):
            register_experiment("zz_double", "again", _rows)
        register_experiment(
            "zz_double", "again", lambda **kw: [{"x": 2}], replace=True
        )
        assert run_experiment("zz_double").rows == [{"x": 2}]

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("no_such_thing")


class TestWatchdog:
    def test_kills_hanging_experiment(self, scratch):
        exp_id = scratch("zz_hang", _hang)
        start = time.monotonic()
        with pytest.raises(ExperimentTimeoutError, match="wall-clock"):
            run_experiment(exp_id, timeout=0.2)
        assert time.monotonic() - start < 5.0

    def test_timeout_never_retried(self, scratch):
        calls = []

        def hang(**kw):
            calls.append(1)
            _hang()

        exp_id = scratch("zz_hang_retry", hang)
        with pytest.raises(ExperimentTimeoutError):
            run_experiment(exp_id, timeout=0.2, retry=RetryPolicy(retries=3))
        assert len(calls) == 1

    def test_fast_experiment_unaffected(self, scratch):
        exp_id = scratch("zz_fast", _rows)
        assert run_experiment(exp_id, timeout=30.0).rows == [{"x": 1}]

    def test_machine_level_deadline(self):
        """The engine watchdog backs the signal one up off the main
        thread: an already-expired wall budget kills the run."""
        from repro.htm import Machine, MachineParams, RandDelay
        from repro.workloads import QueueWorkload

        machine = Machine(MachineParams(n_cores=2), lambda i: RandDelay())
        machine.load(QueueWorkload(), seed=0)
        with pytest.raises(ExperimentTimeoutError):
            machine.run(50_000.0, wall_timeout=0.0)


class TestRetries:
    def test_transient_failures_retried(self, scratch):
        calls = []

        def flaky(**kw):
            calls.append(1)
            if len(calls) < 3:
                raise SimulationError("transient")
            return [{"ok": True}]

        exp_id = scratch("zz_flaky", flaky)
        result = run_experiment(exp_id, retry=_fast_retry(3))
        assert result.rows == [{"ok": True}]
        assert len(calls) == 3

    def test_retries_exhausted(self, scratch):
        calls = []

        def broken(**kw):
            calls.append(1)
            raise SimulationError("always")

        exp_id = scratch("zz_broken", broken)
        with pytest.raises(SimulationError):
            run_experiment(exp_id, retry=_fast_retry(1))
        assert len(calls) == 2

    def test_no_retries_by_default(self, scratch):
        calls = []

        def broken(**kw):
            calls.append(1)
            raise SimulationError("always")

        exp_id = scratch("zz_broken2", broken)
        with pytest.raises(SimulationError):
            run_experiment(exp_id)
        assert len(calls) == 1

    def test_negative_retries_rejected(self, scratch):
        exp_id = scratch("zz_neg", _rows)
        # the policy, not run_experiment, now validates the budget
        with pytest.raises(InvalidParameterError):
            run_experiment(exp_id, retry=RetryPolicy(retries=-1))

    def test_engine_raised_timeout_never_retried(self, scratch):
        """The watchdog contract (simlint ERR rules): a timeout raised
        from *inside* the experiment — the engine deadline path, which
        does not involve SIGALRM — must propagate on the first attempt,
        never entering the retry loop."""
        calls = []

        def deadline(**kw):
            calls.append(1)
            raise ExperimentTimeoutError("engine wall-clock deadline")

        exp_id = scratch("zz_engine_to", deadline)
        with pytest.raises(ExperimentTimeoutError):
            run_experiment(exp_id, retry=_fast_retry(5))
        assert len(calls) == 1

    def test_keyboard_interrupt_propagates_unretried(self, scratch):
        """Ctrl-C is never swallowed or retried by the runner: the
        retry loop catches SimulationError only."""
        calls = []

        def interrupted(**kw):
            calls.append(1)
            raise KeyboardInterrupt

        exp_id = scratch("zz_intr", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(exp_id, retry=_fast_retry(5))
        assert len(calls) == 1


class TestCli:
    def test_keep_going_collects_failures(self, scratch, capsys):
        def broken(**kw):
            raise SimulationError("injected failure")

        bad = scratch("zz_bad", broken)
        good = scratch("zz_good", _rows)
        rc = main([bad, good, "--keep-going"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert f"[{good} completed" in out  # kept going past the failure
        assert "1 experiment(s) FAILED" in err
        assert "SimulationError: injected failure" in err

    def test_first_failure_aborts_without_keep_going(self, scratch, capsys):
        def broken(**kw):
            raise SimulationError("boom")

        bad = scratch("zz_bad2", broken)
        good = scratch("zz_good2", _rows)
        rc = main([bad, good])
        out, err = capsys.readouterr()
        assert rc == 1
        assert f"[{good} completed" not in out  # never reached
        assert "FAILED" in err

    def test_non_repro_error_is_a_failure_record(
        self, scratch, tmp_path, capsys
    ):
        """At --jobs 1 a plain ValueError is reported like at --jobs N:
        exit 1 and a failure summary; a failure is never cached, so a
        rerun attempts it again."""

        def bad_value(**kw):
            raise ValueError("not a repro error")

        exp_id = scratch("zz_valueerror", bad_value)
        assert main([exp_id, *_cached(tmp_path)]) == 1
        _, err = capsys.readouterr()
        assert "1 experiment(s) FAILED" in err
        assert "ValueError: not a repro error" in err
        assert _entries(tmp_path, exp_id) == []

    def test_unknown_id_exit_code(self, capsys):
        assert main(["zz_nope"]) == 2

    def test_checkpoint_and_resume(self, scratch, tmp_path, capsys):
        calls = []

        def counted(**kw):
            calls.append(1)
            return [{"x": 1}]

        def broken(**kw):
            raise SimulationError("boom")

        good = scratch("zz_ck_good", counted)
        bad = scratch("zz_ck_bad", broken)
        args = [good, bad, "--keep-going", *_cached(tmp_path)]
        assert main(args) == 1
        assert len(_entries(tmp_path, good)) == 1
        assert _entries(tmp_path, bad) == []
        assert len(calls) == 1

        # rerun: the completed experiment is a cache hit, the failed one
        # re-attempted (and it fails again -> still exit 1)
        capsys.readouterr()
        rc = main(args)
        out, _ = capsys.readouterr()
        assert rc == 1
        assert len(calls) == 1  # not re-run
        assert f"[{good} completed" in out and "(cache hit)" in out

    def test_resume_after_fix_exits_clean(self, scratch, tmp_path):
        attempts = []

        def flaky_once(**kw):
            attempts.append(1)
            if len(attempts) == 1:
                raise SimulationError("first run dies")
            return [{"x": 1}]

        exp_id = scratch("zz_fix", flaky_once)
        args = [exp_id, "--keep-going", *_cached(tmp_path)]
        assert main(args) == 1
        assert main(args) == 0  # re-attempt succeeds, entry stored
        assert len(_entries(tmp_path, exp_id)) == 1
        assert main(args) == 0  # now a cache hit
        assert len(attempts) == 2

    def test_mismatched_checkpoint_ignored(self, scratch, tmp_path, capsys):
        calls = []

        def counted(**kw):
            calls.append(1)
            return [{"x": 1}]

        exp_id = scratch("zz_mismatch", counted)
        args = [exp_id, *_cached(tmp_path)]
        assert main(args) == 0
        assert len(calls) == 1
        # same cache, different seed: must recompute
        assert main([*args, "--seed", "9"]) == 0
        assert len(calls) == 2
        assert len(_entries(tmp_path, exp_id)) == 2
        # and the first configuration's entry still hits
        capsys.readouterr()
        assert main(args) == 0
        assert len(calls) == 2
        assert "(cache hit)" in capsys.readouterr().out

    def test_corrupt_checkpoint_ignored(self, scratch, tmp_path):
        """A damaged entry is a miss: the rerun recomputes and rewrites
        it."""
        calls = []

        def counted(**kw):
            calls.append(1)
            return [{"x": 1}]

        exp_id = scratch("zz_corrupt", counted)
        args = [exp_id, *_cached(tmp_path)]
        assert main(args) == 0
        (entry,) = _entries(tmp_path, exp_id)
        entry.path.write_text("{not json")
        assert main(args) == 0
        assert len(calls) == 2
        assert len(_entries(tmp_path, exp_id)) == 1

    def test_watchdog_with_keep_going_still_reports(self, scratch, capsys):
        """PR acceptance: a hanging experiment is killed by the
        watchdog while --keep-going lets the rest of the batch (here
        the real quick-mode robustness bench) complete and render."""
        hang = scratch("zz_hang_cli", _hang)
        rc = main(
            [hang, "robustness", "--quick", "--keep-going", "--timeout", "1"]
        )
        out, err = capsys.readouterr()
        assert rc == 1
        assert "ExperimentTimeoutError" in err
        assert "[robustness completed" in out  # batch survived the hang


class TestRenderFailures:
    def test_empty(self):
        assert "all experiments completed" in render_failures([])

    def test_rows(self):
        text = render_failures(
            [
                {
                    "exp_id": "fig9z",
                    "error_type": "SimulationError",
                    "error": "boom",
                }
            ]
        )
        assert "1 experiment(s) FAILED" in text
        assert "fig9z" in text and "boom" in text

"""Tests for the event-driven throughput arena."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adversary import ThroughputArena
from repro.core.policy import ImmediateAbortPolicy, NeverAbortPolicy
from repro.core.requestor_wins import DeterministicRW, UniformRW
from repro.distributions import DeterministicLengths, UniformLengths
from repro.errors import InvalidParameterError


def make(policy, **kwargs):
    defaults = dict(B=1000.0, p_conflict=0.8)
    defaults.update(kwargs)
    return ThroughputArena(8, UniformLengths(500.0), policy, **defaults)


class TestConstruction:
    def test_validation(self):
        policy = ImmediateAbortPolicy()
        with pytest.raises(InvalidParameterError):
            ThroughputArena(1, UniformLengths(10.0), policy)
        with pytest.raises(InvalidParameterError):
            make(policy, conflict_rate=0.0)
        with pytest.raises(InvalidParameterError):
            make(policy, adversary="chaotic")
        with pytest.raises(InvalidParameterError):
            make(policy, p_conflict=1.5)
        with pytest.raises(InvalidParameterError):
            make(policy, restart_delay=-1.0)

    def test_run_validation(self):
        arena = make(ImmediateAbortPolicy())
        with pytest.raises(InvalidParameterError):
            arena.run(0.0)
        with pytest.raises(InvalidParameterError):
            arena.run(100.0, window=0.0)


class TestDynamics:
    def test_no_conflicts_full_throughput(self):
        arena = ThroughputArena(
            4,
            DeterministicLengths(100.0),
            ImmediateAbortPolicy(),
            p_conflict=0.0,
        )
        trace = arena.run(10_000.0, window=1_000.0, seed=1)
        assert trace.total_aborts == 0
        # ~ 4 threads * 10000 / (100 + restart 1)
        assert trace.total_commits == pytest.approx(396, abs=8)
        assert trace.mean_gamma == pytest.approx(100.0, abs=1.0)

    def test_never_abort_survives_all_conflicts(self):
        arena = make(NeverAbortPolicy(horizon=1e9))
        trace = arena.run(50_000.0, seed=1)
        assert trace.total_aborts == 0
        assert trace.total_commits > 0

    def test_deterministic_replay(self):
        def run():
            return make(UniformRW(1000.0)).run(50_000.0, seed=7).total_commits

        assert run() == run()

    def test_windows_cover_horizon(self):
        arena = make(ImmediateAbortPolicy())
        trace = arena.run(50_000.0, window=5_000.0, seed=1)
        assert len(trace.commits_per_window) == 10
        assert sum(trace.commits_per_window) == trace.total_commits
        assert trace.throughput().shape == (10,)

    def test_gamma_exceeds_rho_under_conflicts(self):
        arena = make(UniformRW(1000.0))
        trace = arena.run(100_000.0, seed=2)
        assert trace.mean_gamma > 500.0 * 0.9  # >= mean rho-ish


class TestModelBoundary:
    """The headline property: the paper's adversary model is where the
    delay policies win; the rate adversary erodes that."""

    def test_per_attempt_delays_beat_no_delay(self):
        base = make(ImmediateAbortPolicy()).run(200_000.0, seed=3)
        rrw = make(UniformRW(1000.0)).run(200_000.0, seed=3)
        det = make(DeterministicRW(1000.0)).run(200_000.0, seed=3)
        assert rrw.total_commits > base.total_commits
        assert det.total_commits > base.total_commits
        assert rrw.mean_gamma < base.mean_gamma

    def test_per_attempt_delays_cut_aborts(self):
        base = make(ImmediateAbortPolicy()).run(200_000.0, seed=3)
        det = make(DeterministicRW(1000.0)).run(200_000.0, seed=3)
        assert det.total_aborts < base.total_aborts / 2

    def test_rate_mode_runs_and_differs(self):
        per_attempt = make(UniformRW(1000.0)).run(100_000.0, seed=3)
        rate = make(UniformRW(1000.0), adversary="rate", conflict_rate=0.02).run(
            100_000.0, seed=3
        )
        assert rate.total_commits != per_attempt.total_commits


class TestExperimentEntry:
    def test_registry(self):
        from repro.experiments import EXPERIMENTS, run_experiment

        assert "ext_throughput" in EXPERIMENTS
        result = run_experiment("ext_throughput", quick=True, seed=2)
        per_attempt = {
            r["policy"]: r
            for r in result.rows
            if r["adversary"] == "per_attempt"
        }
        rrw, no_delay = per_attempt["RRW (uniform)"], per_attempt["NO_DELAY"]
        assert rrw["commits"] > no_delay["commits"]
        assert rrw["mean_gamma"] < no_delay["mean_gamma"]

"""Property-based tests for the extension modules."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.model import ConflictKind, ConflictModel
from repro.core.moments import MomentConstraint, moment_constrained_ratio
from repro.core.requestor_wins import UniformRW
from repro.core.verify import competitive_ratio
from repro.htm.interconnect import MeshTopology
from repro.workloads.base import NodePool


class TestMeshProperties:
    @given(st.integers(1, 64), st.integers(1, 8))
    @settings(max_examples=100)
    def test_all_tiles_have_positions(self, n, per_hop):
        topo = MeshTopology(n, per_hop=per_hop)
        positions = {topo.position(t) for t in range(n)}
        assert len(positions) == n

    @given(st.integers(2, 64), st.data())
    @settings(max_examples=100)
    def test_distance_is_a_metric(self, n, data):
        topo = MeshTopology(n)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        # identity, symmetry, triangle inequality
        assert topo.distance(a, a) == 0
        assert topo.distance(a, b) == topo.distance(b, a)
        assert topo.distance(a, c) <= topo.distance(a, b) + topo.distance(b, c)

    @given(st.integers(1, 64), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_home_in_range_and_latency_positive(self, n, line):
        topo = MeshTopology(n)
        home = topo.home_of(line)
        assert 0 <= home < n
        for core in range(min(n, 4)):
            assert topo.core_to_dir(core, line) >= topo.per_hop
            assert topo.dir_to_core(line, core) <= topo.diameter_latency


class TestMomentsProperties:
    @given(st.floats(min_value=5.0, max_value=150.0))
    @settings(max_examples=30, deadline=None)
    def test_mean_constrained_leq_sup(self, mu):
        B = 200.0
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
        policy = UniformRW(B, 2)
        sup = competitive_ratio(policy, model, grid=512).ratio
        lp = moment_constrained_ratio(
            policy, model, [MomentConstraint(1, mu)], grid=512
        )
        assert lp <= sup + 1e-6

    @given(
        st.floats(min_value=20.0, max_value=100.0),
        st.floats(min_value=1.0, max_value=400.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_variance_never_loosens(self, mu, variance):
        from repro.core.moments import mean_variance_ratio

        B = 200.0
        model = ConflictModel(ConflictKind.REQUESTOR_WINS, B, 2)
        policy = UniformRW(B, 2)
        mean_only = moment_constrained_ratio(
            policy, model, [MomentConstraint(1, mu)], grid=512
        )
        both = mean_variance_ratio(policy, model, mu, variance, grid=512)
        assume(not math.isnan(both))
        assert both <= mean_only + 1e-6


class TestNodePoolProperties:
    class _FakeMachine:
        def __init__(self):
            self.ptr = 8
            self.params = type("P", (), {"line_words": 8})()

        def alloc(self, words, line_aligned=True):
            if self.ptr % 8:
                self.ptr += 8 - self.ptr % 8
            base = self.ptr
            self.ptr += words
            return base

    @given(st.integers(1, 4), st.integers(1, 64), st.integers(1, 300))
    @settings(max_examples=100)
    def test_nodes_distinct_until_wrap(self, threads, capacity, takes):
        pool = NodePool(self._FakeMachine(), threads, capacity, 2)
        seen: dict[int, list[int]] = {}
        for i in range(takes):
            thread = i % threads
            seen.setdefault(thread, []).append(pool.take(thread))
        for thread, addrs in seen.items():
            first_cycle = addrs[:capacity]
            assert len(set(first_cycle)) == len(first_cycle)
            assert all(a != 0 for a in addrs)

    @given(st.integers(1, 4), st.integers(2, 16))
    @settings(max_examples=50)
    def test_threads_never_share_nodes(self, threads, capacity):
        pool = NodePool(self._FakeMachine(), threads, capacity, 2)
        per_thread = {
            t: {pool.take(t) for _ in range(capacity)} for t in range(threads)
        }
        all_addrs = [a for s in per_thread.values() for a in s]
        assert len(all_addrs) == len(set(all_addrs))

"""Machine-level semantics: drain, warmup, tracer hooks, commit
observers, and mixed-policy fleets."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.htm import (
    Machine,
    MachineParams,
    NoDelay,
    RandDelay,
    TunedDelay,
)
from repro.workloads import CounterWorkload, TxAppWorkload


class TestDrainSemantics:
    def test_drain_leaves_no_active_tx(self):
        machine = Machine(MachineParams(n_cores=4), lambda i: RandDelay())
        workload = CounterWorkload()
        machine.load(workload, seed=1)
        machine.run(40_000.0)
        assert all(not mem.tx_active for mem in machine.mems)
        assert all(core.idle for core in machine.cores)

    def test_no_drain_keeps_inflight(self):
        machine = Machine(MachineParams(n_cores=4), lambda i: RandDelay())
        workload = CounterWorkload()
        machine.load(workload, seed=1)
        machine.run(40_000.0, drain=False)
        # without drain there may be in-flight state; verification of the
        # workload could legitimately fail, so only protocol-level checks
        # are meaningful here
        machine.check_invariants()

    def test_counters_exclude_drain_ops_mostly(self):
        machine = Machine(MachineParams(n_cores=4), lambda i: NoDelay())
        workload = CounterWorkload()
        machine.load(workload, seed=1)
        stats = machine.run(40_000.0)
        # drained ops can exceed the horizon count by at most ~n_cores
        assert workload.committed <= stats.ops_completed + 2 * 4


class TestCommitObservers:
    def test_observer_sees_every_commit(self):
        durations = []
        machine = Machine(MachineParams(n_cores=4), lambda i: NoDelay())
        machine.commit_observers.append(durations.append)
        workload = CounterWorkload(ops_limit=60)
        machine.load(workload, seed=1)
        stats = machine.run(200_000.0)
        assert len(durations) == stats.tx_committed
        assert all(d >= 0 for d in durations)

    def test_multiple_observers(self):
        a, b = [], []
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        machine.commit_observers.extend([a.append, b.append])
        workload = CounterWorkload(ops_limit=10)
        machine.load(workload, seed=1)
        machine.run(100_000.0)
        assert a == b
        assert len(a) == 10


class TestMixedPolicyFleet:
    def test_per_core_policies(self):
        """The policy factory receives the core id — a heterogeneous
        fleet (half NO_DELAY, half delayed) must still be correct."""

        def factory(core_id):
            return NoDelay() if core_id % 2 == 0 else TunedDelay(100)

        machine = Machine(MachineParams(n_cores=6), factory)
        workload = TxAppWorkload(work_cycles=40)
        machine.load(workload, seed=2)
        stats = machine.run(80_000.0)
        workload.verify(machine)
        assert stats.ops_completed > 50
        # only the delayed cores should have nonzero graces
        for mem in machine.mems:
            if mem.core_id % 2 == 0 and mem.stats.grace_delay_stats.n:
                assert mem.stats.grace_delay_stats.max == 0.0


class TestRunValidation:
    def test_horizon_must_be_positive(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        machine.load(CounterWorkload(), seed=1)
        from repro.errors import InvalidParameterError

        for horizon in (0.0, -100.0):
            with pytest.raises(InvalidParameterError):
                machine.run(horizon)

    def test_run_before_load(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        with pytest.raises(SimulationError):
            machine.run(100.0)


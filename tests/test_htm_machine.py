"""Integration tests for the HTM machine (cores + caches + directory)."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError, SimulationError
from repro.htm import (
    DetDelay,
    Machine,
    MachineParams,
    NoDelay,
    RandDelay,
    TunedDelay,
)
from repro.htm.conflict_policy import ConflictContext, RRWMeanDelay, policy_from_name
from repro.workloads import CounterWorkload, StackWorkload

HORIZON = 120_000.0


def run_machine(workload, policy_factory, n_cores=4, seed=1, **machine_kwargs):
    params = MachineParams(n_cores=n_cores)
    machine = Machine(params, policy_factory, **machine_kwargs)
    machine.load(workload, seed=seed)
    stats = machine.run(HORIZON)
    return machine, stats


class TestCounterExactness:
    """The strongest atomicity check: final counter == committed ops."""

    @pytest.mark.parametrize(
        "factory",
        [lambda i: NoDelay(), lambda i: RandDelay(), lambda i: DetDelay()],
        ids=["no_delay", "rand", "det"],
    )
    def test_no_lost_updates(self, factory):
        workload = CounterWorkload()
        machine, stats = run_machine(workload, factory)
        assert stats.ops_completed > 100
        workload.verify(machine)

    def test_single_core_no_conflicts(self):
        workload = CounterWorkload()
        machine, stats = run_machine(workload, lambda i: NoDelay(), n_cores=1)
        assert stats.total("conflicts_received") == 0
        assert stats.tx_aborted == 0
        workload.verify(machine)

    def test_ops_limit_respected(self):
        workload = CounterWorkload(ops_limit=50)
        machine, stats = run_machine(workload, lambda i: NoDelay())
        assert stats.ops_completed == 50
        workload.verify(machine)


class TestInvariants:
    def test_protocol_invariants_after_run(self):
        workload = CounterWorkload()
        machine, _ = run_machine(workload, lambda i: RandDelay())
        machine.check_invariants()

    def test_deterministic_replay(self):
        def one_run():
            workload = CounterWorkload()
            machine, stats = run_machine(workload, lambda i: RandDelay(), seed=9)
            return stats.ops_completed, stats.tx_aborted

        assert one_run() == one_run()

    def test_seeds_differ(self):
        def one_run(seed):
            workload = CounterWorkload()
            _, stats = run_machine(workload, lambda i: RandDelay(), seed=seed)
            return stats.ops_completed

        assert one_run(1) != one_run(2) or one_run(3) != one_run(4)

    def test_run_requires_load(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        with pytest.raises(SimulationError):
            machine.run(1000.0)


class TestWaitsForGraph:
    def test_edges_balance(self):
        workload = CounterWorkload()
        machine, _ = run_machine(workload, lambda i: RandDelay())
        # after drain every wait edge must have been cleared
        assert machine._waits == {}

    def test_chain_size_floor(self):
        machine = Machine(MachineParams(n_cores=4), lambda i: NoDelay())
        assert machine.chain_size(0) == 1  # holder alone

    def test_transitive_waiters(self):
        machine = Machine(MachineParams(n_cores=4), lambda i: NoDelay())
        machine.note_wait(1, 0)
        machine.note_wait(2, 1)
        machine.note_wait(3, 1)
        assert machine.transitive_waiters(0) == {1, 2, 3}
        assert machine.chain_size(0) == 4
        machine.clear_wait(2, 1)
        assert machine.transitive_waiters(0) == {1, 3}

    def test_wait_multiset(self):
        machine = Machine(MachineParams(n_cores=4), lambda i: NoDelay())
        machine.note_wait(1, 0)
        machine.note_wait(1, 0)
        machine.clear_wait(1, 0)
        assert machine.transitive_waiters(0) == {1}
        machine.clear_wait(1, 0)
        assert machine.transitive_waiters(0) == set()

    def test_cycle_detection_path(self):
        machine = Machine(MachineParams(n_cores=4), lambda i: NoDelay())
        machine.note_wait(1, 0)
        machine.note_wait(0, 1)
        assert machine._find_cycle_path(1) is not None
        assert machine._find_cycle_path(3) is None


class TestMemoryAllocation:
    def test_line_zero_reserved(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        addr = machine.alloc(1)
        assert addr >= machine.params.line_words  # never address 0

    def test_line_alignment(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        a = machine.alloc(3)
        b = machine.alloc(3)
        assert machine.params.line_of(a) != machine.params.line_of(b)

    def test_unaligned_packing(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        a = machine.alloc(1, line_aligned=False)
        b = machine.alloc(1, line_aligned=False)
        assert b == a + 1

    def test_invalid_alloc(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        with pytest.raises(InvalidParameterError):
            machine.alloc(0)

    def test_poke_peek(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: NoDelay())
        machine.poke(64, 42)
        assert machine.peek(64) == 42
        assert machine.peek(65) == 0


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MachineParams(n_cores=0)
        with pytest.raises(InvalidParameterError):
            MachineParams(hop=-1)
        with pytest.raises(InvalidParameterError):
            MachineParams(clock_ghz=0.0)

    def test_line_of(self):
        params = MachineParams(line_words=8)
        assert params.line_of(0) == 0
        assert params.line_of(7) == 0
        assert params.line_of(8) == 1
        with pytest.raises(InvalidParameterError):
            params.line_of(-1)

    def test_with_cores(self):
        params = MachineParams(n_cores=4)
        assert params.with_cores(9).n_cores == 9
        assert params.n_cores == 4

    def test_l1_lines(self):
        assert MachineParams(l1_sets=64, l1_assoc=8).l1_lines == 512


class TestConflictPolicies:
    def ctx(self, age=100, k=2):
        return ConflictContext(age, k, MachineParams(n_cores=2))

    def test_abort_cost_estimate(self):
        ctx = self.ctx(age=40)
        assert ctx.abort_cost == 40 + MachineParams().abort_overhead

    def test_no_delay(self, rng):
        assert NoDelay().decide(self.ctx(), rng) == 0

    def test_tuned(self, rng):
        assert TunedDelay(77).decide(self.ctx(), rng) == 77
        assert TunedDelay(100, fraction=0.5).decide(self.ctx(), rng) == 50

    def test_det_matches_theorem4(self, rng):
        ctx = self.ctx(age=100, k=3)
        assert DetDelay().decide(ctx, rng) == ctx.abort_cost // 2

    def test_rand_bounded(self, rng):
        ctx = self.ctx(age=100, k=2)
        for _ in range(100):
            delay = RandDelay().decide(ctx, rng)
            assert 0 <= delay < ctx.abort_cost

    def test_rrw_mean_bounded(self, rng):
        policy = RRWMeanDelay(mu_cycles=30.0)
        ctx = self.ctx(age=100, k=2)
        for _ in range(50):
            delay = policy.decide(ctx, rng)
            assert 0 <= delay <= ctx.abort_cost * 1.3  # bucket slack

    def test_rrw_mean_cache(self, rng):
        policy = RRWMeanDelay(mu_cycles=30.0)
        ctx = self.ctx(age=100, k=2)
        policy.decide(ctx, rng)
        policy.decide(ctx, rng)
        assert len(policy._cache) == 1

    def test_policy_from_name(self):
        params = MachineParams()
        assert isinstance(policy_from_name("NO_DELAY", params), NoDelay)
        assert isinstance(
            policy_from_name("delay_tuned", params, tuned_cycles=5), TunedDelay
        )
        assert isinstance(policy_from_name("DELAY_DET", params), DetDelay)
        assert isinstance(policy_from_name("DELAY_RAND", params), RandDelay)
        assert isinstance(
            policy_from_name("DELAY_RRW_MU", params, mu_cycles=10.0),
            RRWMeanDelay,
        )
        with pytest.raises(InvalidParameterError):
            policy_from_name("nope", params)
        with pytest.raises(InvalidParameterError):
            policy_from_name("DELAY_TUNED", params)

    def test_context_validation(self):
        with pytest.raises(InvalidParameterError):
            ConflictContext(-1, 2, MachineParams())
        with pytest.raises(InvalidParameterError):
            ConflictContext(0, 1, MachineParams())


class TestAbortReasonsAccounting:
    def test_reasons_sum_to_aborts(self):
        workload = StackWorkload()
        machine, stats = run_machine(workload, lambda i: RandDelay(), n_cores=8)
        reasons = stats.abort_reasons()
        # 'wedged' double-counts with conflict_immediate (it is a cause
        # tag); exclude it from the sum
        total = sum(v for k, v in reasons.items() if k != "wedged")
        assert total == stats.tx_aborted

    def test_cycle_aborts_counted(self):
        workload = StackWorkload()
        machine, stats = run_machine(workload, lambda i: DetDelay(), n_cores=8)
        assert machine.stats.cycle_aborts >= 0  # smoke: counter exists

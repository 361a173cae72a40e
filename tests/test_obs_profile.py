"""Tests for the kernel profiling hooks (repro.obs.profile.PhaseProfiler)."""

from __future__ import annotations

from repro.htm import Machine, MachineParams, RandDelay
from repro.obs import PhaseProfiler
from repro.workloads import CounterWorkload


def _fired(profiler: PhaseProfiler) -> dict[str, int]:
    return {label: cell[0] for label, cell in profiler.handlers.items()}


class TestPhaseProfiler:
    def test_machine_run_records_phases_and_every_fire(self):
        machine = Machine(MachineParams(n_cores=2), lambda i: RandDelay())
        profiler = PhaseProfiler()
        machine.attach_profiler(profiler)
        workload = CounterWorkload()
        machine.load(workload, seed=1)
        machine.sim.at(10.0, lambda: None)  # an event without a label
        machine.run(20_000.0)
        workload.verify(machine)
        assert set(profiler.phases) == {"measure", "drain"}
        fired = _fired(profiler)
        assert fired["<unlabeled>"] == 1
        assert fired["commit"] > 0
        assert sum(fired.values()) == machine.sim.events_fired
        summary = profiler.summary()
        assert sorted(summary["handlers"]) == sorted(fired)
        assert summary["phases_s"]["measure"] >= 0.0
        assert 0.0 <= profiler.occupancy() <= 1.0

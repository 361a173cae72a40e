"""Golden-trace regression tests: canonical event streams, byte for byte.

Each case replays a small, fully seeded scenario under an observability
capture and compares the canonical JSONL rendering of its event stream
against a checked-in golden file in ``tests/golden/`` (``<case>.jsonl``),
and its metrics snapshot against ``<case>.metrics.json``.  Because the
serialization is canonical (sorted keys), *any* drift — event ordering,
schema fields, simulator timing, policy decisions, a counter or a
histogram bucket — shows up as a byte diff.

When a change is intentional, regenerate the goldens and review the
diff like any other source change::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden
"""

from __future__ import annotations

import difflib
import json
import pathlib

import pytest

from repro.distributions import GeometricLengths
from repro.htm import Machine, MachineParams, RandDelay
from repro.obs import capture
from repro.obs.tracebus import jsonl_line
from repro.synthetic import SyntheticHarness
from repro.workloads import CounterWorkload

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def render(events) -> str:
    return "".join(jsonl_line(event) + "\n" for event in events)


def render_metrics(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def fig2_cell():
    """One Figure-2 synthetic cell: geometric lengths, B=2000, mu=500."""
    with capture() as cap:
        SyntheticHarness(2000.0, 500.0).run(GeometricLengths(500.0), 4000, 3)
    return cap


def fig3_cell():
    """One Figure-3 machine cell: 2 cores, randomized policy, counter."""
    with capture() as cap:
        machine = Machine(MachineParams(n_cores=2), lambda i: RandDelay())
        machine.load(CounterWorkload(), seed=3)
        machine.run(12_000.0)
    return cap


CASES = {
    "fig2_geometric_cell": fig2_cell,
    "fig3_counter_cell": fig3_cell,
}


def check_golden(golden: pathlib.Path, text: str, request) -> None:
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(text)
        pytest.skip(f"golden updated: {golden}")
    assert golden.exists(), (
        f"missing {golden}; generate it with --update-golden"
    )
    expected = golden.read_text()
    if text != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                text.splitlines(),
                fromfile=str(golden),
                tofile="current",
                lineterm="",
                n=1,
            )
        )
        pytest.fail(
            f"capture drifted from golden (intentional? rerun with "
            f"--update-golden and review):\n{diff[:4000]}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name, request):
    text = render(CASES[name]().events)
    assert text, f"scenario {name} produced no events"
    check_golden(GOLDEN_DIR / f"{name}.jsonl", text, request)


@pytest.mark.parametrize("name", sorted(CASES))
def test_metrics_match_golden(name, request):
    snapshot = CASES[name]().snapshot()
    assert snapshot["counters"], f"scenario {name} counted nothing"
    check_golden(
        GOLDEN_DIR / f"{name}.metrics.json", render_metrics(snapshot), request
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenarios_are_reproducible(name):
    """The golden scenarios themselves are deterministic run-to-run."""
    first, second = CASES[name](), CASES[name]()
    assert render(first.events) == render(second.events)
    assert first.snapshot() == second.snapshot()

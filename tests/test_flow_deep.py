"""Acceptance pins for the FLOW pass: the purity analysis detects a
sim-critical entry reaching ``time.time()`` / ambient ``np.random``
through >= 2 intermediate same- and cross-module calls and prints the
full chain; the seed-provenance analysis catches ambient, laundered,
shared and captured generators while passing clean ones.  Every
file is parsed and tokenized once per run."""

from __future__ import annotations

import ast
import json
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.baseline import apply_baseline, fingerprint, load_baseline
from repro.analysis.engine import lint_paths, lint_sources

FIXTURES = Path(__file__).parent / "fixtures" / "flow"


def deep(fixture: str, select=("FLOW",)):
    return lint_paths([FIXTURES / fixture], select=list(select))


class TestPurityChains:
    def test_wall_clock_through_two_intermediates(self):
        result = deep("transitive")
        (f,) = [x for x in result.flow if x["rule"] == "FLOW001"]
        assert f["entry"] == "htm.engine:step"
        # >= 2 intermediates: one same-module, one cross-module
        assert f["chain"] == [
            "htm.engine:step",
            "htm.engine:_advance",
            "util.timeutil:read_clock",
            "util.timeutil:_now",
        ]
        assert f["site"]["detail"] == "time.time()"
        # the human-facing message prints the whole chain
        assert (
            "htm.engine.step -> htm.engine._advance -> "
            "util.timeutil.read_clock -> util.timeutil._now"
        ) in f["message"]

    def test_ambient_numpy_cross_module(self):
        result = deep("transitive")
        (f,) = [x for x in result.flow if x["rule"] == "FLOW002"]
        assert f["entry"] == "core.policy:draw"
        assert f["chain"] == [
            "core.policy:draw", "util.rnd:noise", "util.rnd:_jitter",
        ]
        assert "numpy.random.rand()" in f["message"]

    def test_findings_anchor_at_entry_definition(self):
        result = deep("transitive")
        (f,) = [x for x in result.findings if x.rule == "FLOW001"]
        assert f.path.endswith("transitive/htm/engine.py")
        assert f.line == 7  # def step

    def test_clean_fixture_is_clean(self):
        result = deep("clean")
        assert result.ok
        assert result.flow == []


class TestSeedProvenance:
    def test_ambient_generator_creation(self):
        result = deep("seeds")
        hits = [
            f for f in result.flow
            if f["rule"] == "FLOW006" and f["entry"] == "sim.sampler:ambient"
        ]
        assert len(hits) == 1
        assert "without a seed" in hits[0]["message"]

    def test_laundered_generator_chain(self):
        result = deep("seeds")
        (f,) = [
            x for x in result.flow
            if x["rule"] == "FLOW006" and x["entry"] == "sim.sampler:draw"
        ]
        assert f["chain"] == ["sim.sampler:draw", "util.mkrng:fresh_rng"]
        assert "sim.sampler.draw -> util.mkrng.fresh_rng" in f["message"]

    def test_module_level_generator(self):
        result = deep("seeds")
        (f,) = [
            x for x in result.flow
            if x["rule"] == "FLOW007" and "_RNG" in x["message"]
        ]
        assert f["entry"] == "sim.sampler:<module>"

    def test_generator_captured_across_pool_boundary(self):
        result = deep("seeds")
        hits = [
            f for f in result.flow
            if f["rule"] == "FLOW007" and f["entry"] == "sim.shards:fan_out"
        ]
        assert len(hits) == 1
        assert "closure" in hits[0]["message"]

    def test_parameter_seeded_paths_pass(self):
        result = deep("seeds")
        entries = {f["entry"] for f in result.flow}
        assert "sim.sampler:clean" not in entries
        assert "sim.shards:fan_out_clean" not in entries
        assert "sim.shards:_shard_task" not in entries


class TestPragmaHonoring:
    def test_site_level_suppression_stops_propagation(self):
        sources = {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    deadline = time.monotonic() + budget"
                "  # simlint: disable=DET001 -- watchdog\n"
                "    return deadline\n"
            ),
        }
        result = lint_sources(sources, select=["FLOW"])
        assert result.ok
        assert result.flow == []

    def test_flow_id_suppresses_site_too(self):
        sources = {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    return time.monotonic() + budget"
                "  # simlint: disable=FLOW001 -- sanctioned\n"
            ),
        }
        result = lint_sources(sources, select=["FLOW"])
        assert result.ok

    def test_unsuppressed_site_still_found(self):
        sources = {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    return time.monotonic() + budget\n"
            ),
        }
        result = lint_sources(sources, select=["FLOW"])
        assert not result.ok
        assert result.findings[0].rule == "FLOW001"


class TestBaseline:
    def _sources(self):
        return {
            "sim/run.py": (
                "import time\n\n\n"
                "def loop(budget):\n"
                "    return time.monotonic() + budget\n"
            ),
        }

    def test_baselined_finding_is_accepted_and_surfaced(self):
        result = lint_sources(self._sources(), select=["FLOW"])
        entries = [
            {
                "rule": f["rule"],
                "entry": f["entry"],
                "site": f["site"]["detail"],
                "justification": "known wall-clock in fixture",
            }
            for f in result.flow
        ]
        again = lint_sources(
            self._sources(), select=["FLOW"], baseline_entries=entries,
        )
        assert again.ok
        assert len(again.baselined) == 1
        assert again.baselined[0]["justification"] == (
            "known wall-clock in fixture"
        )

    def test_fingerprint_is_line_independent(self):
        result = lint_sources(self._sources(), select=["FLOW"])
        raw = result.flow[0]
        shifted = dict(raw, line=raw["line"] + 10)
        assert fingerprint(raw) == fingerprint(shifted)

    def test_render_and_load_roundtrip(self, tmp_path):
        result = lint_sources(self._sources(), select=["FLOW"])
        path = tmp_path / "baseline.json"
        entry = {
            "rule": result.flow[0]["rule"],
            "entry": result.flow[0]["entry"],
            "site": result.flow[0]["site"]["detail"],
            "justification": "known wall-clock in fixture",
        }
        path.write_text(
            json.dumps({"version": 1, "entries": [entry]}), encoding="utf-8"
        )
        entries = load_baseline(path)
        kept, baselined = apply_baseline(result.flow, entries)
        assert kept == []
        assert len(baselined) == 1

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"entries": [{"rule": "FLOW001"}]}',
                        encoding="utf-8")
        try:
            load_baseline(path)
        except ValueError as exc:
            assert "missing" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestRealTree:
    def test_src_deep_pass_is_clean_under_committed_baseline(self):
        repo = Path(__file__).resolve().parent.parent
        entries = load_baseline(repo / ".simlint-baseline.json")
        result = lint_paths(
            [repo / "src"], select=["FLOW"], baseline_entries=entries,
        )
        assert result.ok, [f.message for f in result.findings]
        # the chaos-harness writes stay visible as baselined items
        assert {b["entry"] for b in result.baselined} == {
            "repro.faults.chaos:tear_tail",
            "repro.faults.chaos:corrupt_bytes",
        }


class TestOneParse:
    def test_each_file_parsed_and_tokenized_once(self, monkeypatch):
        """The FLOW pass reuses the engine's tree and pragma map: one
        ``ast.parse`` and one tokenize pass per file per run."""
        parsed: Counter = Counter()
        tokenized: list[int] = []
        real_parse, real_tokens = ast.parse, tokenize.generate_tokens

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        def counting_tokens(readline):
            tokenized.append(1)
            return real_tokens(readline)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
        sources = {
            "pkg/sim/__init__.py": "",
            "pkg/sim/a.py": (
                "import time\n\n\ndef go(n):\n    return time.time() + n\n"
            ),
            "pkg/sim/b.py": "def pure(n):\n    return n + 1\n",
        }
        result = lint_sources(sources)
        assert [f["entry"] for f in result.flow] == ["sim.a:go"]
        assert parsed == Counter({path: 1 for path in sources})
        assert len(tokenized) == len(sources)


@pytest.mark.parametrize(
    "source, rules",
    [
        ("import random\n", ["DET002"]),
        ("import random\nx = random.random()\n", ["DET002"]),
        ("import numpy as np\nnp.random.seed(0)\n", ["DET003"]),
        (
            "import random\n\n\ndef f():\n    return random.random()\n",
            ["DET002", "FLOW002"],
        ),
        (
            "import numpy as np\n\n\ndef f():\n    np.random.seed(0)\n",
            ["DET003", "FLOW002"],
        ),
    ],
)
def test_flow002_follows_calls_from_functions_only(source, rules):
    """Module-level randomness is seen by DET002/DET003 alone."""
    result = lint_sources({"src/repro/htm/fixture.py": source})
    assert sorted({f.rule for f in result.findings}) == rules

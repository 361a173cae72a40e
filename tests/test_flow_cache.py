"""Guarantees the FLOW pass gives across runs: a ``--select`` change
reports exactly the selected subset of the full run, and a rerun of an
unchanged tree renders byte-identical JSON and SARIF reports.  Every
run analyzes from source; nothing is carried between runs."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import lint_paths
from repro.analysis.report import render_json
from repro.analysis.sarif import render_sarif

FIXTURES = Path(__file__).parent / "fixtures" / "flow"


class TestAnalysisCache:
    def test_run_cache_is_configuration_independent(self):
        """A --select change must report that subset of the full run."""
        result_all = lint_paths([FIXTURES / "transitive"], select=["FLOW"])
        result_001 = lint_paths(
            [FIXTURES / "transitive"], select=["FLOW001"]
        )
        rules_all = {f["rule"] for f in result_all.flow}
        assert rules_all == {"FLOW001", "FLOW002"}
        assert {f["rule"] for f in result_001.flow} == {"FLOW001"}
        assert result_001.flow == [
            f for f in result_all.flow if f["rule"] == "FLOW001"
        ]

    def test_cached_rerun_reports_are_byte_identical(self):
        first = lint_paths([FIXTURES / "transitive"], select=["FLOW"])
        again = lint_paths([FIXTURES / "transitive"], select=["FLOW"])
        assert render_json(first) == render_json(again)
        assert render_sarif(first) == render_sarif(again)
        assert not hasattr(first, "analysis_stats")

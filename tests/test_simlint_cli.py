"""The ``python -m repro lint`` CLI: exit codes, formats, selection,
and the acceptance gate — the repaired tree lints clean while a seeded
violation exits non-zero with file:line:rule output."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

REPO = pathlib.Path(__file__).resolve().parent.parent
REPO_SRC = REPO / "src"
#: the committed baseline, passed explicitly so the run does not depend
#: on the working directory holding ``.simlint-baseline.json``
BASELINE = ["--baseline", str(REPO / ".simlint-baseline.json")]


@pytest.fixture
def violation_tree(tmp_path):
    """A fake package tree with one DET002 + one ORD001 violation in a
    simulation-critical directory."""
    pkg = tmp_path / "htm"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "import random\n"
        "for x in {1, 2}:\n"
        "    consume(x)\n"
    )
    return tmp_path


class TestLintCli:
    def test_repaired_tree_is_clean(self, capsys):
        assert lint_main([str(REPO_SRC), *BASELINE]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "0 findings" in out

    def test_dispatch_through_repro_cli(self, capsys):
        assert repro_main(["lint", str(REPO_SRC), *BASELINE]) == 0
        assert "simlint" in capsys.readouterr().out

    def test_seeded_violation_exits_nonzero(self, violation_tree, capsys):
        rc = lint_main([str(violation_tree)])
        assert rc == 1
        out = capsys.readouterr().out
        # file:line:col: RULE message
        assert "bad.py:1:1: DET002" in out
        assert "bad.py:2:10: ORD001" in out

    def test_select_limits_rules(self, violation_tree, capsys):
        assert lint_main([str(violation_tree), "--select", "ORD"]) == 1
        out = capsys.readouterr().out
        assert "ORD001" in out and "DET002" not in out

    def test_ignore_all_relevant_rules_passes(self, violation_tree):
        rc = lint_main(
            [str(violation_tree), "--ignore", "DET002,ORD001"]
        )
        assert rc == 0

    def test_json_format(self, violation_tree, capsys):
        assert lint_main([str(violation_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"]["DET002"] == 1
        assert payload["findings"][0]["path"].endswith("bad.py")
        assert {"path", "line", "col", "rule", "message"} <= set(
            payload["findings"][0]
        )

    def test_json_reports_suppressions(self, tmp_path, capsys):
        pkg = tmp_path / "sim"
        pkg.mkdir()
        (pkg / "ok.py").write_text(
            "import random  # simlint: disable=DET002 -- fixture\n"
        )
        assert lint_main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["suppressed"][0]["rule"] == "DET002"
        assert payload["suppressed"][0]["reason"] == "fixture"

    def test_unknown_rule_is_usage_error(self, violation_tree, capsys):
        assert lint_main([str(violation_tree), "--select", "XYZ9"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("DET001", "ORD001", "ERR001", "API001", "POL001"):
            assert family in out

    def test_show_suppressed_lists_justifications(self, capsys):
        rc = lint_main([str(REPO_SRC), "--show-suppressed", *BASELINE])
        assert rc == 0
        out = capsys.readouterr().out
        # the two sanctioned watchdog wall-clock reads
        assert "watchdog" in out

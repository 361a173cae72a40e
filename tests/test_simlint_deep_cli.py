"""CLI surface of the FLOW pass: call chains in the default run,
SARIF output, and the hand-edited baseline workflow."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
TRANSITIVE = str(FIXTURES / "transitive")
CHAIN = (
    "htm.engine.step -> htm.engine._advance -> "
    "util.timeutil.read_clock -> util.timeutil._now"
)


def run(capsys, argv):
    code = lint_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_baseline(capsys, path):
    """Accept every FLOW finding on the transitive fixture by writing
    the baseline JSON by hand, as a maintainer would."""
    _code, out, _err = run(
        capsys, [TRANSITIVE, "--select", "FLOW", "--format", "json"]
    )
    entries = [
        {
            "rule": f["rule"],
            "entry": f["entry"],
            "site": f["site"]["detail"],
            "justification": "accepted in test",
        }
        for f in json.loads(out)["flow"]
    ]
    path.write_text(
        json.dumps({"version": 1, "entries": entries}), encoding="utf-8"
    )
    return entries


class TestDeepCli:
    def test_deep_prints_full_chain(self, capsys):
        code, out, _err = run(capsys, [TRANSITIVE, "--select", "FLOW"])
        assert code == 1
        assert CHAIN in out

    def test_default_run_reports_flow_chain(self, capsys):
        code = repro_main(["lint", TRANSITIVE, "--select", "FLOW"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FLOW001" in out.partition("simlint:")[2]
        assert CHAIN in out


class TestSarif:
    def test_sarif_structure(self, capsys):
        _code, out, _err = run(
            capsys,
            [TRANSITIVE, "--select", "FLOW", "--format", "sarif"],
        )
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        (sarif_run,) = doc["runs"]
        assert sarif_run["tool"]["driver"]["name"] == "simlint"
        rule_ids = {r["id"] for r in sarif_run["tool"]["driver"]["rules"]}
        assert {"FLOW001", "FLOW006", "PRG001", "DET001"} <= rule_ids
        levels = {r["ruleId"]: r["level"] for r in sarif_run["results"]}
        assert levels["FLOW001"] == "error"
        locs = sarif_run["results"][0]["locations"]
        assert locs[0]["physicalLocation"]["region"]["startLine"] >= 1

    def test_sarif_carries_baselined_as_suppressed(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        write_baseline(capsys, baseline)
        code, out, _err = run(
            capsys,
            [TRANSITIVE, "--select", "FLOW", "--baseline", str(baseline),
             "--format", "sarif"],
        )
        assert code == 0  # everything baselined
        doc = json.loads(out)
        results = doc["runs"][0]["results"]
        assert results, "baselined findings must stay visible"
        assert all(r["level"] == "note" for r in results)
        assert all("suppressions" in r for r in results)


class TestBaselineWorkflow:
    def test_write_then_accept(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        entries = write_baseline(capsys, baseline)
        assert len(entries) == 2
        code, out, _err = run(
            capsys,
            [TRANSITIVE, "--select", "FLOW", "--baseline", str(baseline)],
        )
        assert code == 0
        assert "2 baselined" in out

    def test_malformed_baseline_is_usage_error(self, capsys, tmp_path):
        baseline = tmp_path / "bad.json"
        baseline.write_text("[]", encoding="utf-8")
        code, _out, err = run(
            capsys, [TRANSITIVE, "--baseline", str(baseline)]
        )
        assert code == 2
        assert "simlint: error" in err

"""simlint report rendering: human ``path:line:col: RULE message``
lines and a machine-readable JSON document (for CI annotation or
trend tracking)."""

from __future__ import annotations

import json

from repro.analysis.engine import LintResult
from repro.analysis.rules import ALL_RULES

__all__ = ["render_human", "render_json", "render_rule_catalog"]


def render_human(result: LintResult) -> str:
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
        for f in result.findings
    ]
    n = len(result.findings)
    n_sup = len(result.suppressed)
    n_base = len(result.baselined)
    sup_note = f", {n_sup} suppressed" if n_sup else ""
    sup_note += f", {n_base} baselined" if n_base else ""
    if n == 0:
        summary = (
            f"simlint: clean — 0 findings in {result.files_scanned} "
            f"files{sup_note}"
        )
    else:
        by_rule = ", ".join(
            f"{rule}×{count}" for rule, count in result.counts().items()
        )
        summary = (
            f"simlint: {n} finding(s) in {result.files_scanned} files "
            f"({by_rule}{sup_note})"
        )
    return "\n".join(lines + [summary])


def render_json(result: LintResult) -> str:
    payload = {
        "ok": result.ok,
        "files_scanned": result.files_scanned,
        "rules_run": result.rules_run,
        "counts": result.counts(),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.rule,
                "message": f.message,
            }
            for f in result.findings
        ],
        "suppressed": [
            {
                "path": s.finding.path,
                "line": s.finding.line,
                "col": s.finding.col,
                "rule": s.finding.rule,
                "reason": s.reason,
            }
            for s in result.suppressed
        ],
        # FLOW sections: full chains for live FLOW findings, plus
        # the accepted (baselined) ones with their justifications.
        "flow": result.flow,
        "baselined": result.baselined,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """``--list-rules`` output: one id + summary per line, with the
    rationale indented underneath."""
    blocks = []
    for rule in ALL_RULES:
        blocks.append(f"{rule.id}  {rule.summary}")
        if rule.rationale:
            blocks.append(f"       {rule.rationale}")
    return "\n".join(blocks)

"""Whole-program determinism analysis (the FLOW pass).

Call-graph purity inference + RNG seed-provenance tracking over the
whole project, run by every ``repro lint`` on the engine's parsed
files: :mod:`extract` summarizes each module from its tree and
suppression map, :mod:`graph` resolves calls and propagates effect
signatures to fixpoint.  Findings carry rule ids from the FLOW family
(:mod:`repro.analysis.rules.flow`) and print full call chains.
"""

from repro.analysis.flow.extract import extract_module, module_names
from repro.analysis.flow.graph import ProjectGraph

__all__ = ["ProjectGraph", "extract_module", "module_names"]

"""Static analysis (``repro analyze``, ``repro lint``).

A stdlib-``ast`` framework — per-function CFGs, reaching definitions,
a cross-module call graph — and one engine
(:mod:`repro.analysis.engine`) that reads and parses each file once
and runs every static check in the repo:

* :mod:`repro.analysis.lint` — the per-module lint rules: the
  workload scope (VR000–VR005, ``repro lint``) and the determinism
  self-lint scope (SR000–SR003, ``repro lint --self``);
* :mod:`repro.analysis.locksets` — Eraser-style lockset and section-
  consistency analysis for workload programs (RC001, RC002);
* :mod:`repro.analysis.threads` — thread-safety lockset inference for
  threaded service classes (RC003, RC004).

The coherence fabrics' transition tables are recorded by the model
checker instead (:mod:`repro.mc.tables`).

Output formats: text, JSON, and SARIF 2.1.0
(:mod:`repro.analysis.sarif`); CI gating goes through the committed
findings baseline (:mod:`repro.analysis.baseline`). See
``docs/analysis.md`` for the rule catalog and triage workflow.
"""

from repro.analysis.baseline import (DEFAULT_BASELINE, apply_baseline,
                                     default_baseline_path,
                                     load_baseline, save_baseline)
from repro.analysis.cfg import CFG, ReachingDefs
from repro.analysis.engine import (analyze_paths, lint_paths, render_text,
                                   rules_catalog)
from repro.analysis.findings import ANALYSIS_RULES, Finding
from repro.analysis.sarif import (findings_from_sarif, render_sarif,
                                  to_sarif)

__all__ = [
    "ANALYSIS_RULES", "CFG", "DEFAULT_BASELINE", "Finding",
    "ReachingDefs", "analyze_paths", "apply_baseline",
    "default_baseline_path", "findings_from_sarif", "lint_paths",
    "load_baseline", "render_sarif", "render_text", "rules_catalog",
    "save_baseline", "to_sarif",
]

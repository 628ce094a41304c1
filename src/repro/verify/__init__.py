"""Correctness-analysis suite: dynamic checkers and seeded faults.

* :mod:`repro.verify.checkers` — the :class:`VerificationSuite`, an
  event-bus subscriber that shadows a run against the paper's
  correctness contract (signature false negatives, undo-log
  restoration, isolation, conflict serializability). Enable per run
  with ``run_workload(..., verify=True)`` or ``repro run --verify``.
* :mod:`repro.verify.faults` — seeded faults (a bit-dropping signature
  wrapper, resurrected protocol bugs) so tests can prove the checkers
  and the model checker actually convict.

The static workload lint (``repro lint``, rules ``VR000``-``VR005``)
and the determinism self-lint (``repro lint --self``, ``SR000``-
``SR003``) live in :mod:`repro.analysis.lint`.

See ``docs/verification.md`` for the checker catalog, rule ids,
suppression syntax, and cost model.
"""

from repro.common.errors import VerificationError
from repro.verify.checkers import (VerificationReport, VerificationSuite,
                                   Violation)

__all__ = [
    "VerificationError", "VerificationReport", "VerificationSuite",
    "Violation",
]

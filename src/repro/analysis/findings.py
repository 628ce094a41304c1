"""The one finding type of ``repro lint`` and ``repro analyze``.

:class:`Finding` renders as ``path:line: RULE message [fix: ...]`` and
carries the enclosing-symbol ``context`` the baseline fingerprint needs
to stay stable when unrelated edits shift line numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict

#: rule id -> one-line description for the concurrency passes
#: (the VR/SR lint rules are catalogued in :mod:`repro.analysis.lint`).
ANALYSIS_RULES: Dict[str, str] = {
    "RC001": "shared location guarded inconsistently across sections "
             "(lockset mismatch)",
    "RC002": "stale read: a value read in one atomic section guards a "
             "write in a later one",
    "RC003": "lock-acquisition-order cycle (potential deadlock)",
    "RC004": "shared attribute mutated without the lock that guards its "
             "other accesses",
}


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnostic."""

    path: str
    line: int
    rule: str
    message: str
    fixit: str
    context: str = ""
    baselined: bool = field(default=False, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message, "fixit": self.fixit,
                "context": self.context, "baselined": self.baselined}

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: {self.rule} {self.message}"
                f" [fix: {self.fixit}]")

    def fingerprint(self) -> str:
        """Stable identity: rule + canonical path + symbol + message.

        Line numbers are deliberately excluded so unrelated edits above
        a finding do not churn the baseline.
        """
        basis = "\x1f".join((self.rule, canonical_path(self.path),
                             self.context, self.message))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


def canonical_path(path: str) -> str:
    """Repo-stable form of a path: from the ``repro`` package component
    onward when present, else the path as given (posix separators)."""
    parts = path.replace("\\", "/").split("/")
    for anchor in ("repro", "tests"):
        if anchor in parts[:-1]:
            return "/".join(parts[parts.index(anchor):])
    return "/".join(parts)


__all__ = ["ANALYSIS_RULES", "Finding", "canonical_path"]

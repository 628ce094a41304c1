"""Pluggable contention managers.

Section 2: a NACKed requester "stalls, retries its coherence operation, and
aborts on a possible deadlock cycle. More sophisticated future versions
could trap to a contention manager." This module is that trap point. Three
policies:

* **timestamp** (LogTM's policy, the default): stall; abort self when
  NACKed by an older transaction while holding the possible-cycle flag;
  as a starvation fallback, abort self after a configurable retry budget.
* **polite**: never reason about ages — stall with backoff and abort self
  once the retry budget is exhausted. Livelock-free only through
  randomized backoff; cheap and simple.
* **aggressive** (requester wins): ask every blocking transaction to abort
  (delivered as a *pending abort* the blocker honors at its next
  transactional instruction boundary), then stall until the isolation
  clears. Maximizes requester progress; can waste more work under heavy
  conflicts.

All policies are side-effect-free decisions; the core applies them
(raising :class:`AbortTransaction` or marking remote contexts).
"""

from __future__ import annotations

import abc
import enum
from typing import List

from repro.coherence.msgs import Blocker
from repro.common.config import TMConfig
from repro.common.errors import ConfigError
from repro.core.txcontext import TxContext


class Decision(enum.Enum):
    STALL = "stall"               # back off, retry the request
    ABORT_SELF = "abort_self"     # unroll own log, restart
    ABORT_OTHERS = "abort_others"  # doom the blockers, then stall


class ContentionPolicy(abc.ABC):
    """Decides what a NACKed *transactional* requester does."""

    name: str = "abstract"

    def __init__(self, cfg: TMConfig) -> None:
        self.cfg = cfg

    @abc.abstractmethod
    def decide(self, ctx: TxContext, blockers: List[Blocker],
               retries: int) -> Decision:
        """Resolution for one NACK of one access (``retries`` so far)."""

    def _over_budget(self, retries: int) -> bool:
        limit = self.cfg.max_retries_before_abort
        return bool(limit) and retries >= limit


class TimestampPolicy(ContentionPolicy):
    """LogTM's distributed cycle avoidance (the paper's policy)."""

    name = "timestamp"

    def decide(self, ctx: TxContext, blockers: List[Blocker],
               retries: int) -> Decision:
        # Abort on a possible cycle: this transaction NACKed an older one
        # (``possible_cycle``) and is now NACKed by an older one.
        if ctx.possible_cycle and ctx.timestamp is not None:
            for blocker in blockers:
                if blocker.older_than(ctx.timestamp):
                    return Decision.ABORT_SELF
        if self._over_budget(retries):
            return Decision.ABORT_SELF
        return Decision.STALL


class PolitePolicy(ContentionPolicy):
    """Always yield: stall, then abort self past the retry budget."""

    name = "polite"

    def decide(self, ctx: TxContext, blockers: List[Blocker],
               retries: int) -> Decision:
        if self._over_budget(retries):
            return Decision.ABORT_SELF
        return Decision.STALL


class AggressivePolicy(ContentionPolicy):
    """Requester wins: doom the blockers and wait for them to unroll."""

    name = "aggressive"

    def decide(self, ctx: TxContext, blockers: List[Blocker],
               retries: int) -> Decision:
        if self._over_budget(retries):
            # Even an aggressive requester gives up eventually: a doomed
            # blocker stuck in a long escape action cannot unroll yet.
            return Decision.ABORT_SELF
        if retries == 0:
            return Decision.ABORT_OTHERS
        return Decision.STALL


_POLICIES = {
    TimestampPolicy.name: TimestampPolicy,
    PolitePolicy.name: PolitePolicy,
    AggressivePolicy.name: AggressivePolicy,
}


def make_policy(cfg: TMConfig) -> ContentionPolicy:
    cls = _POLICIES.get(cfg.contention_policy)
    if cls is None:
        raise ConfigError(
            f"unknown contention policy {cfg.contention_policy!r}; "
            f"choose from {sorted(_POLICIES)}")
    return cls(cfg)

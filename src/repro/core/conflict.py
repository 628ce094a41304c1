"""Stall and restart backoff for LogTM's conflict resolution.

A requester whose coherence request is NACKed *stalls* and retries; it
aborts only when a possible deadlock cycle exists (LogTM's timestamp
rule). That stall-or-abort decision belongs to the contention managers
in :mod:`repro.core.policies`, which ``Core._resolve_or_stall``
consults; this module spaces the retries and restarts that follow.
"""

from __future__ import annotations

import random

from repro.common.config import TMConfig


class BackoffPolicy:
    """Retry spacing for stalls and aborted-transaction restarts."""

    def __init__(self, cfg: TMConfig, rng: random.Random) -> None:
        self._cfg = cfg
        self._rng = rng

    def stall_delay(self) -> int:
        """Cycles before retrying a NACKed coherence request."""
        jitter = self._rng.randrange(self._cfg.backoff_jitter + 1)
        return self._cfg.backoff_base + jitter

    def restart_delay(self, attempt: int) -> int:
        """Cycles before restarting an aborted transaction.

        Randomized exponential backoff with a *high* cap: repeated aborts of
        the same transaction must eventually back off far enough for an
        older stalled transaction to find a conflict-free window — this is
        what makes the timestamp policy starvation-free in practice.
        """
        exp = min(max(attempt, 1), 12)
        window = self._cfg.backoff_base << exp
        return self._cfg.backoff_base + self._rng.randrange(window)

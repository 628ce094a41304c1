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
        self._getrandbits = rng.getrandbits
        self._jitter_span = cfg.backoff_jitter + 1
        self._jitter_bits = self._jitter_span.bit_length()

    def stall_delay(self) -> int:
        """Cycles before retrying a NACKed coherence request.

        The jitter is ``randrange(backoff_jitter + 1)`` drawn inline: the
        same rejection loop over ``getrandbits(k)`` that ``randrange``
        runs, so it consumes the same bits from the shared RNG, without
        ``randrange``'s two Python frames per stall.
        """
        span, bits = self._jitter_span, self._jitter_bits
        jitter = self._getrandbits(bits)
        while jitter >= span:
            jitter = self._getrandbits(bits)
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

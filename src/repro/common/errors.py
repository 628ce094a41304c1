"""Exception hierarchy for the LogTM-SE simulator.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without also swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The simulation kernel detected an inconsistent state."""


class DeadlockError(SimulationError):
    """The simulation made no progress: every runnable process is blocked."""


class InvariantViolation(ReproError, AssertionError):
    """A whole-system state audit (``coherence.invariants``) failed.

    Historically this subclassed only ``AssertionError``, which meant the
    intent could be silently weakened by association with ``assert``
    statements (stripped under ``python -O``). It is now a
    :class:`ReproError` first; ``AssertionError`` is kept as a secondary
    base for one release so existing ``except AssertionError`` handlers
    and pytest idioms keep working, and will be dropped afterwards.
    """


class VerificationError(ReproError):
    """A dynamic correctness checker (:mod:`repro.verify`) found a
    violation and the caller asked for strict behaviour (raise instead of
    report)."""


class TransactionError(ReproError):
    """A transactional-memory invariant was violated."""


class AbortTransaction(ReproError):
    """Control-flow signal: the current transaction must abort.

    Raised inside a thread's access path when conflict resolution decides the
    running transaction loses. The CPU access loop catches it, runs the
    software abort handler (log unroll), and restarts the transaction. It is
    an exception rather than a return code so that abort unwinds nested
    generator frames (L1 access, coherence request) in one step.
    """

    def __init__(self, reason: str = "conflict", cause: str = "conflict",
                 fp: bool = False, via: str = "targeted") -> None:
        super().__init__(reason)
        self.reason = reason
        #: Structured provenance for abort attribution (see
        #: :func:`repro.obs.analysis.classify_abort`): the mechanism that
        #: forced the abort, whether every blocking signature hit was
        #: aliasing, and the path the conflict arrived on
        #: ("targeted" / "sticky" / "broadcast").
        self.cause = cause
        self.fp = fp
        self.via = via


class PreemptedAccess(ReproError):
    """Control-flow signal: the OS preempted the thread mid-access.

    Raised from the memory-access retry loop when the scheduler has
    requested preemption (a stalling access is a sequence of retried
    instructions, each an interruptible boundary). The executor catches it,
    parks the thread, and re-issues the same operation after rescheduling —
    possibly on a different core.
    """


class WorkloadError(ReproError):
    """A workload generator produced an invalid operation stream."""

"""LogTM-SE core: transaction contexts, undo log, conflicts, TM manager."""

from repro.core.conflict import BackoffPolicy
from repro.core.logfilter import LogFilter
from repro.core.policies import (AggressivePolicy, ContentionPolicy,
                                 Decision, PolitePolicy, TimestampPolicy,
                                 make_policy)
from repro.core.manager import TMManager
from repro.core.txcontext import TxContext
from repro.core.undolog import LogFrame, UndoLog, UndoRecord

__all__ = ["AggressivePolicy", "BackoffPolicy", "ContentionPolicy",
           "Decision", "LogFilter", "LogFrame", "PolitePolicy",
           "TMManager", "TimestampPolicy", "TxContext", "UndoLog",
           "UndoRecord", "make_policy"]

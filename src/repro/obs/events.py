"""Typed observability events and the namespaced taxonomy.

Every component of the simulated machine reports what it does as
:class:`Event` records — a timestamp (virtual cycles), a dot-namespaced
``kind``, and a flat field dict. Kinds are organized by layer:

========== =================================================================
namespace  emitted by
========== =================================================================
``tm.*``   transaction lifecycle (manager, core access path)
``coh.*``  coherence fabric: directory / snooping requests, NACKs,
           victimization, sticky-state transitions
``net.*``  interconnect messages
``os.*``   OS model: scheduling, summary signatures, paging
``log.*``  undo log: appends and abort walks
``sim.*``  simulation kernel: process spawn/finish
``svc.*``  sweep service: job lifecycle, cell dispatch, worker fleet
           (wall-clock milliseconds, not virtual cycles — the service
           runs outside any simulation)
========== =================================================================

The taxonomy below is the contract between emitters and the analyzers in
:mod:`repro.obs.analysis` / exporters in :mod:`repro.obs.export`: a kind
listed here has a stable meaning and field set. Emitting an unlisted kind
is allowed (the bus is open — see ``EventBus(strict=True)`` to opt into
enforcement), but analyzers only understand the documented ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: The recognized kind namespaces (the segment before the first dot).
NAMESPACES: Tuple[str, ...] = ("tm", "coh", "net", "os", "log", "sim",
                               "svc")


@dataclass(frozen=True)
class Event:
    """One recorded event: virtual time, namespaced kind, payload fields."""

    time: int
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.time}] {self.kind} {details}".rstrip()

    @property
    def namespace(self) -> str:
        return namespace_of(self.kind)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe record (inverse: :func:`event_from_dict`)."""
        return {"time": self.time, "kind": self.kind,
                "fields": dict(self.fields)}


def event_from_dict(data: Dict[str, Any]) -> Event:
    """Rebuild an :class:`Event` from :meth:`Event.to_dict` output."""
    return Event(time=int(data["time"]), kind=str(data["kind"]),
                 fields=dict(data.get("fields", {})))


#: kind -> (description, documented fields). The field lists name what the
#: analyzers rely on; emitters may add more.
TAXONOMY: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # -- transaction lifecycle ---------------------------------------------
    "tm.begin": ("transaction (or nest level) began",
                 ("thread", "depth", "open")),
    "tm.access": ("one memory reference completed (eager path)",
                  ("thread", "vaddr", "block", "write", "value", "tx",
                   "in_tx", "asid")),
    "tm.commit": ("innermost transaction committed",
                  ("thread", "outer")),
    "tm.abort": ("abort handler ran",
                 ("thread", "undone", "full", "outer", "cause", "fp", "via",
                  "category")),
    "tm.stall": ("NACKed access stalled (contention-manager trap)",
                 ("thread", "blockers", "fp", "via")),
    "tm.conflict": ("a conflict was detected against this thread's access",
                    ("thread", "source", "fp", "block", "blockers")),
    # -- coherence ----------------------------------------------------------
    "coh.request": ("coherence request reached the fabric",
                    ("block", "core", "thread", "write")),
    "coh.grant": ("request granted; L1 may install",
                  ("block", "core", "thread", "write", "state")),
    "coh.nack": ("request NACKed by one or more signatures",
                 ("block", "core", "thread", "blockers")),
    "coh.broadcast": ("lost-info broadcast rebuild (directory only)",
                      ("block",)),
    "coh.snoop": ("bus snoop broadcast (snooping fabric)",
                  ("block", "core", "write")),
    "coh.l1_victim": ("L1 replacement evicted a block",
                      ("block", "core", "transactional", "sticky")),
    "coh.l2_victim": ("L2 (or multichip chip-L2) replacement dropped "
                      "directory info", ("block", "transactional")),
    # A chip directory's discharge names its cores; the multichip memory
    # directory's discharge of sticky-M chips names those chips instead.
    "coh.sticky_clean": ("sticky forwarding obligation discharged",
                         ("block", "cores", "chips")),
    # -- interconnect -------------------------------------------------------
    "net.msg": ("one message traversed the grid",
                ("route", "src", "dst", "cls", "hops")),
    # -- OS model -----------------------------------------------------------
    "os.deschedule": ("thread removed from its hardware context",
                      ("thread", "in_tx")),
    "os.schedule": ("thread placed on a hardware context",
                    ("thread", "slot")),
    "os.summary_install": ("summary signature installed on a context",
                           ("slot", "asid", "exclude")),
    "os.page_move": ("paging daemon relocated a page",
                     ("vpage", "old_frame", "new_frame")),
    # -- undo log -----------------------------------------------------------
    "log.append": ("undo record appended",
                   ("thread", "vblock", "depth")),
    "log.unroll": ("abort handler walked one log frame",
                   ("thread", "records", "depth")),
    # -- simulation kernel --------------------------------------------------
    "sim.spawn": ("process started on the simulator", ("process",)),
    "sim.process_done": ("process generator finished", ("process",)),
    # -- sweep service (wall-clock ms since service start) ------------------
    "svc.job.submitted": ("sweep job accepted into the queue",
                          ("job", "cells", "priority")),
    "svc.job.started": ("job left the queue; cells being resolved",
                        ("job",)),
    "svc.job.done": ("every cell terminal, none failed",
                     ("job", "executed", "repo_hits")),
    "svc.job.failed": ("one or more cells failed", ("job", "failed")),
    "svc.job.cancelled": ("job cancelled (queued or mid-run)", ("job",)),
    "svc.cell.dispatch": ("cell handed to a fleet worker",
                          ("job", "label", "worker")),
    # ``wall_time`` runs from dispatch to result; ``cpu_time`` is the
    # worker's process CPU time around ``Cell.run`` (0.0 for a hit).
    "svc.cell.done": ("cell result stored",
                      ("job", "label", "source", "wall_time", "cpu_time",
                       "attempts")),
    "svc.cell.failed": ("cell exhausted its retry budget",
                        ("job", "label", "reason")),
    "svc.cell.requeued": ("cell re-queued after a crash or timeout",
                          ("job", "label", "cause", "attempts")),
    "svc.worker.spawn": ("fleet worker process started", ("worker",)),
    "svc.worker.exit": ("fleet worker exited cleanly", ("worker",)),
    "svc.worker.crash": ("fleet worker died mid-cell; cell re-queued",
                         ("worker", "exitcode")),
    "svc.worker.timeout": ("fleet worker exceeded the cell deadline",
                           ("worker", "job", "label")),
    "svc.drain": ("graceful shutdown: waiting for in-flight cells",
                  ("busy",)),
}


def namespace_of(kind: str) -> str:
    """The namespace (first dot-segment) of an event kind."""
    return kind.split(".", 1)[0]


def validate_kind(kind: str) -> None:
    """Raise ``ValueError`` for a kind outside the documented taxonomy."""
    if kind not in TAXONOMY:
        known = sorted(TAXONOMY)
        raise ValueError(
            f"unknown event kind {kind!r}; documented kinds: {known}")

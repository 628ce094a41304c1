"""TM-level invariants evaluated at every explored state.

The coherence-level audits from :mod:`repro.coherence.invariants` run
unchanged — :class:`~repro.mc.model.ProtocolModel` duck-types the system
surface they expect (``cores``/``l1``/``slots``/``fabric``/``cfg``). On
top of them this module checks the LogTM-SE safety argument itself:

* **tm-isolation** — single-writer/multi-reader over *exact* read/write
  sets: no block is in one running transaction's write set and any other
  running transaction's read or write set. This is the end-to-end
  property everything else (NACKs, sticky states, scrubs) exists to
  maintain; any missed-conflict bug eventually lands here.
* **no-false-negative** — every block in an exact set is reported by the
  corresponding filter. Signatures may alias (false positives) but a
  false negative is a missed conflict (Section 2's one-sided guarantee).
* **read-coverage** — the sticky-obligation invariant, extended from the
  write-set-only coherence audit to *read* sets: every signature-covered
  block a transaction no longer caches must still be reachable by
  conflict checks (owner/sharer/sticky pointer, or a lost-info /
  check-all broadcast obligation). A write-set block that loses coverage
  breaks isolation on the next remote read; a read-set block that loses
  it breaks on the next remote *write* — which is exactly what the
  sticky-discharge and scrub rules must prevent.
* **frame-tenancy** — no L1 line outlives its physical frame: a resident
  line whose fill-time tenancy generation differs from the frame's
  current generation is a stale copy from a previous tenant, and a local
  hit on it would read or write the new tenant's data with no coherence
  request (the Section 4.2 paging hazard).

Two more invariants — log-restorable abort and write-set log coverage —
are transition-scoped (they can only be judged while an abort executes)
and live in :meth:`ProtocolModel.apply` as
:class:`~repro.mc.model.TransitionViolation`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.coherence.invariants import (
    _directory_covers, check_cache_invariants, check_directory_accuracy,
    check_isolation_coverage, check_tm_bookkeeping)
from repro.common.errors import InvariantViolation
from repro.mc.model import ProtocolModel


def check_tm_isolation(model: ProtocolModel) -> None:
    """Single-writer/multi-reader over exact transactional footprints."""
    running = [ctx for ctx in model.contexts if ctx.in_tx]
    for i, a in enumerate(running):
        writes = a.signature.write.exact_set()
        if not writes:
            continue
        for b in running[i + 1:]:
            for addr in sorted(writes & (b.signature.read.exact_set()
                                         | b.signature.write.exact_set())):
                raise InvariantViolation(
                    f"isolation lost on block {addr:#x}: t{a.thread_id} "
                    f"has it in its write set while t{b.thread_id} has it "
                    "in its read/write set")
            for addr in sorted(b.signature.write.exact_set()
                               & a.signature.read.exact_set()):
                raise InvariantViolation(
                    f"isolation lost on block {addr:#x}: t{b.thread_id} "
                    f"has it in its write set while t{a.thread_id} has it "
                    "in its read set")


def check_no_false_negative(model: ProtocolModel) -> None:
    """Filters must report every exact-set member (Section 2)."""
    for ctx in model.contexts:
        for half, name in ((ctx.signature.read, "read"),
                           (ctx.signature.write, "write")):
            for addr in sorted(half.exact_set()):
                if not half.contains(addr):
                    raise InvariantViolation(
                        f"t{ctx.thread_id}'s {name} filter denies "
                        f"{addr:#x}, which is in its exact {name} set — "
                        "a signature false negative")


def check_read_coverage(model: ProtocolModel) -> None:
    """Sticky-obligation coverage for the *full* signature footprint."""
    for core in model.cores:
        for slot in core.slots:
            ctx = slot.thread.ctx
            if not ctx.in_tx:
                continue
            covered = (ctx.signature.read.exact_set()
                       | ctx.signature.write.exact_set())
            for addr in sorted(covered):
                if core.l1.peek(addr) is not None:
                    continue
                if _directory_covers(model, addr, core.core_id):
                    continue
                kind = ("write" if
                        ctx.signature.write.contains_exact(addr)
                        else "read")
                raise InvariantViolation(
                    f"t{ctx.thread_id}'s {kind}-set block {addr:#x} is "
                    "neither cached nor covered by any directory "
                    "pointer/obligation — a conflicting request would "
                    "never reach its signature")


def check_frame_tenancy(model: ProtocolModel) -> None:
    """No cached line may survive its frame's reuse."""
    for core in model.cores:
        for block in core.l1.resident_blocks():
            b = model.block_index[block.addr]
            line_gen = core.l1.line_tenancy[block.addr]
            if line_gen != model.tenancy[b]:
                raise InvariantViolation(
                    f"core {core.core_id} still caches {block.addr:#x} "
                    f"({block.state.value}) from frame tenancy "
                    f"{line_gen}, but the frame was reused (now tenancy "
                    f"{model.tenancy[b]}) — a local hit reads the new "
                    "tenant's data with no coherence request")


#: Every state-shaped invariant, in evaluation order. The coherence-level
#: audits run first (they localize lower-level corruption); the TM-level
#: audits catch the end-to-end failures. Names are what counterexamples
#: and ``--json`` report.
INVARIANTS: List[Tuple[str, Callable[[ProtocolModel], object]]] = [
    ("cache-mesi", check_cache_invariants),
    ("directory-accuracy", check_directory_accuracy),
    ("write-coverage", check_isolation_coverage),
    ("tm-bookkeeping", check_tm_bookkeeping),
    ("tm-isolation", check_tm_isolation),
    ("no-false-negative", check_no_false_negative),
    ("read-coverage", check_read_coverage),
    ("frame-tenancy", check_frame_tenancy),
]


def violated_invariant(model: ProtocolModel
                       ) -> Optional[Tuple[str, str]]:
    """First violated invariant as ``(name, message)``, or None."""
    for name, check in INVARIANTS:
        try:
            check(model)
        except InvariantViolation as exc:
            return name, str(exc)
    return None

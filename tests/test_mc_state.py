"""The model checker's state description and its symmetry group.

* every field of every class the model snapshots is either covered by
  the encoded state or declared left out, with the reason;
* every symmetry element commutes with every transition on the first
  states of each clean shape of the model-checking matrix: relabeling
  a successor gives the successor of the relabeled state under the
  relabeled action;
* the block group keeps only the permutations the signature cannot
  tell apart;
* the action vocabulary renders and parses every opcode.
"""

from collections import deque

import pytest

from repro.coherence.directory import DirectoryEntry, DirectoryFabric
from repro.coherence.multichip import ChipEntry, MemDirEntry, MultiChipFabric
from repro.coherence.snooping import SnoopingFabric
from repro.common.config import ConfigError, SignatureKind
from repro.core.logfilter import LogFilter
from repro.core.txcontext import TxContext
from repro.core.undolog import LogFrame, UndoLog
from repro.cpu.thread import HardwareSlot
from repro.mc import ModelConfig, ProtocolModel
from repro.mc.matrix import ROWS
from repro.mc.model import (OPERANDS, ModelL1, TransitionViolation,
                            action_from_dict, action_to_dict, format_action)
from repro.mc.state import block_symmetries, state_remaps, symmetry_maps
from repro.signatures.base import Signature
from repro.signatures.rwpair import ReadWriteSignature

BUILT = "fixed when the object is built"
OBSERVED = "observability only: no protocol decision reads it"
UNCONTENDED = ("the model drains every request uncontended, so every "
               "lock is free between actions")

#: Per class: the fields its part of the encoded state covers.
COVERED = {
    TxContext: {"signature", "log", "log_filter", "timestamp"},
    UndoLog: {"_frames"},
    LogFrame: {"records"},
    LogFilter: {"_slots"},
    ReadWriteSignature: {"read", "write"},
    Signature: {"_exact", "_mask"},
    DirectoryEntry: {"owner", "sharers", "sticky", "lost_info",
                     "must_check_all"},
    ChipEntry: {"owner", "sharers", "sticky", "rights"},
    MemDirEntry: {"owner_chip", "sharer_chips", "sticky_chips"},
    DirectoryFabric: {"_entries", "l2"},
    MultiChipFabric: {"_chip_entries", "_mem_entries", "l2s"},
    SnoopingFabric: {"_owner", "_sharers"},
    ModelL1: {"_lines", "line_tenancy"},
    HardwareSlot: set(),
}

#: Per class: every other field, with the reason the state leaves it out.
LEFT_OUT = {
    TxContext: {
        "thread_id": BUILT,
        "stats": OBSERVED, "_commits": OBSERVED, "_aborts": OBSERVED,
        "_read_hist": OBSERVED, "_write_hist": OBSERVED,
        "possible_cycle": "cleared by decode; ROADMAP item 20 encodes it",
        "pending_abort": "set only by an aggressive contention manager; "
                         "the model's policy stalls or aborts the "
                         "requester itself",
        "pending_abort_fp": "travels with pending_abort",
        "aborted_by_os": "set only by a preemption abort or a lazy "
                         "squash, which the model never runs",
        "write_buffer": "lazy version management only; the model is eager",
        "escape_depth": "the model has no escape actions (ROADMAP item 9)",
        "needs_summary_recompute": "set only at a reschedule, which the "
                                   "model never runs (ROADMAP item 9)",
    },
    UndoLog: {"block_bytes": BUILT, "_stats": OBSERVED,
              "_thread_id": OBSERVED},
    LogFrame: {
        "checkpoint": "the model passes no register checkpoint",
        "saved_signature": "a nested frame's; the model never nests",
        "is_open": "a nested frame's; the model never nests",
    },
    LogFilter: {"entries": BUILT},
    ReadWriteSignature: {},
    Signature: {"geometry": BUILT},
    DirectoryEntry: {"lock": UNCONTENDED},
    ChipEntry: {},
    MemDirEntry: {"lock": UNCONTENDED},
    DirectoryFabric: {
        "_ports": BUILT, "cfg": BUILT, "amap": BUILT, "network": BUILT,
        "_use_sticky": BUILT, "_dir_latency": BUILT,
        "_l2_latency": BUILT, "_mem_latency": BUILT, "stats": OBSERVED,
        "_c_requests": OBSERVED, "_c_nacks": OBSERVED, "_c_fwd": OBSERVED,
        "_c_sticky_set": OBSERVED, "_c_sticky_clean": OBSERVED,
        "_c_l1_evict_tx": OBSERVED, "_c_l2_evict_tx": OBSERVED,
        "_c_mem": OBSERVED, "_c_bcast": OBSERVED,
    },
    MultiChipFabric: {
        "_ports": BUILT, "cfg": BUILT, "amap": BUILT, "networks": BUILT,
        "_use_sticky": BUILT, "stats": OBSERVED,
        "_c_requests": OBSERVED, "_c_nacks": OBSERVED, "_c_fwd": OBSERVED,
        "_c_sticky_set": OBSERVED, "_c_sticky_clean": OBSERVED,
        "_c_l1_evict_tx": OBSERVED, "_c_l2_evict_tx": OBSERVED,
        "_c_mem": OBSERVED, "_c_interchip": OBSERVED,
        "_c_chip_sticky": OBSERVED,
    },
    SnoopingFabric: {
        "_ports": BUILT, "cfg": BUILT, "amap": BUILT, "network": BUILT,
        "l2": "snooping L2 residency is latency only",
        "_bus": UNCONTENDED, "_block_locks": UNCONTENDED,
        "stats": OBSERVED, "_c_requests": OBSERVED, "_c_nacks": OBSERVED,
        "_c_bcast": OBSERVED, "_c_mem": OBSERVED,
        "_c_l1_evict_tx": OBSERVED,
    },
    ModelL1: {"_tenancy": "the model's own tenancy table, encoded once",
              "_block_index": BUILT},
    HardwareSlot: {
        "core": BUILT, "slot_index": BUILT,
        "thread": "each slot keeps the thread bound at construction",
        "summary": "None until the OS installs a summary; the model never "
                   "deschedules (ROADMAP item 9)",
    },
}

#: Signature designs add only decode parameters to the base class.
for _kind in ("_index_mask", "_shift", "bits", "granularity",
              "_block_shift", "_field_shift", "_half_bits", "_half_mask",
              "block_bytes", "_family", "hashes", "seed"):
    LEFT_OUT[Signature][_kind] = BUILT


def fields(obj):
    """An object's fields: its slots up the class chain and its dict."""
    names = set()
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update([slots] if isinstance(slots, str) else slots)
    names.update(getattr(obj, "__dict__", {}))
    return names - {"__dict__", "__weakref__"}


def snapshotted_objects():
    """One live instance of every class the model snapshots."""
    for fabric in ("directory", "snooping", "multichip"):
        model = ProtocolModel(ModelConfig(fabric=fabric))
        model.apply(("begin", 0))
        ctx = model.contexts[0]
        yield from (ctx, ctx.log, ctx.log.current, ctx.log_filter,
                    ctx.signature, model.slots[0], model.cores[0].l1,
                    model.fabric)
        if fabric == "directory":
            yield model.fabric.entry_view(model.block_addrs[0])
        if fabric == "multichip":
            yield model.fabric.chip_entry_view(0, model.block_addrs[0])
            yield model.fabric.mem_entry_view(model.block_addrs[0])
    for kind in SignatureKind:
        model = ProtocolModel(ModelConfig(signature=kind))
        yield model.contexts[0].signature.read


def classified_as(obj):
    cls = Signature if isinstance(obj, Signature) else type(obj)
    return cls, COVERED[cls], set(LEFT_OUT[cls])


def test_every_field_is_classified():
    checked = set()
    for obj in snapshotted_objects():
        cls, covered, left_out = classified_as(obj)
        checked.add(cls)
        assert not covered & left_out, cls
        present = fields(obj)
        if cls is Signature:
            # One design carries only some of the decode parameters.
            left_out &= present
        assert present == covered | left_out, (
            f"{type(obj).__name__}: unclassified "
            f"{sorted(present - covered - left_out)}, stale "
            f"{sorted((covered | left_out) - present)}")
    assert checked == set(COVERED) == set(LEFT_OUT)


# -- symmetry ---------------------------------------------------------------

BS = SignatureKind.BIT_SELECT

def clean_shapes():
    """Each distinct clean config of the matrix, named by its first row."""
    shapes = {}
    for row in ROWS:
        if row.config.mutation is None:
            shapes.setdefault(row.config, row.name)
    return {name: mcfg for mcfg, name in shapes.items()}


SHAPES = clean_shapes()

#: States explored per fabric. The limits keep each shape to about a
#: second: a multichip state has up to 16 group elements to check.
LIMITS = {"directory": 100, "snooping": 100, "multichip": 20}


def remap_action(action, relabel):
    """The action a group element maps ``action`` to: each operand is
    an identity of the kind its name gives."""
    return (action[0],) + tuple(
        relabel[kind][index]
        for kind, index in zip(OPERANDS[action[0]], action[1:]))


def _successor(model, raw, action):
    """The encoded state ``action`` leads to from ``raw``, or the
    invariant it violates on the way."""
    model.decode(raw)
    try:
        model.apply(action)
    except TransitionViolation as exc:
        return exc.invariant
    return model.encode()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_symmetry_commutes_with_every_transition(shape):
    mcfg = SHAPES[shape]
    model = ProtocolModel(mcfg)
    maps = symmetry_maps(mcfg)
    group = list(zip(maps, state_remaps(model.layout, maps)))
    start = model.encode()
    seen, frontier = {start}, deque([start])
    for _ in range(LIMITS[mcfg.fabric]):
        if not frontier:
            break
        raw = frontier.popleft()
        model.decode(raw)
        actions = model.actions()
        moved = [remap(raw) for _relabel, remap in group]
        for (relabel, _remap), image in zip(group, moved):
            model.decode(image)
            assert sorted(model.actions()) == sorted(
                remap_action(a, relabel) for a in actions)
        for action in actions:
            after = _successor(model, raw, action)
            if isinstance(after, tuple) and after not in seen:
                seen.add(after)
                frontier.append(after)
            for (relabel, remap), image in zip(group, moved):
                got = _successor(model, image, remap_action(action, relabel))
                want = remap(after) if isinstance(after, tuple) else after
                assert got == want, (action, relabel)


def test_block_group_respects_signature_aliasing():
    every = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
             (2, 1, 0)]
    assert block_symmetries(ModelConfig(blocks=3)) == every
    assert block_symmetries(
        ModelConfig(blocks=3, signature=BS, signature_bits=64)) == every
    assert block_symmetries(
        ModelConfig(blocks=3, signature=BS, signature_bits=1)) == every
    # Blocks 0 and 2 share a register bit and block 1 has its own.
    assert block_symmetries(
        ModelConfig(blocks=3, signature=BS, signature_bits=2)) == \
        [(0, 1, 2), (2, 1, 0)]
    assert len(symmetry_maps(
        ModelConfig(blocks=3, signature=BS, signature_bits=2))) == 4


# -- action vocabulary ------------------------------------------------------

def test_every_opcode_renders_and_parses():
    examples = {
        ("begin", 0): ("begin t0", {"op": "begin", "thread": 0}),
        ("read", 1, 0): ("read t1 B0",
                         {"op": "read", "thread": 1, "block": 0}),
        ("write", 0, 1): ("write t0 B1",
                          {"op": "write", "thread": 0, "block": 1}),
        ("commit", 1): ("commit t1", {"op": "commit", "thread": 1}),
        ("abort", 0): ("abort t0", {"op": "abort", "thread": 0}),
        ("evict", 1, 0): ("evict core1 B0",
                          {"op": "evict", "core": 1, "block": 0}),
        ("l2_evict", 0, 1): ("l2_evict chip0 B1",
                             {"op": "l2_evict", "chip": 0, "block": 1}),
        ("reuse", 1): ("reuse B1", {"op": "reuse", "block": 1}),
    }
    assert {action[0] for action in examples} == set(OPERANDS)
    for action, (label, data) in examples.items():
        assert format_action(action) == label
        assert action_to_dict(action) == data
        assert list(action_to_dict(action)) == list(data)
        assert action_from_dict(data) == action


def test_an_unknown_opcode_is_a_config_error():
    with pytest.raises(ConfigError):
        action_from_dict({"op": "relocate", "block": 0})
    with pytest.raises(ConfigError):
        action_to_dict(("relocate", 0))

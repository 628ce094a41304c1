"""Tests for the per-thread undo log (eager version management)."""

import pytest

from repro.common.errors import TransactionError
from repro.core.undolog import UndoLog
from repro.mem.address import AddressMap
from repro.mem.physical import WORD_BYTES, PhysicalMemory
from repro.mem.vm import FrameAllocator, PageTable

IDENTITY = lambda vaddr: vaddr


def make_log():
    return UndoLog(block_bytes=64), PhysicalMemory(1 << 20)


class TestFrames:
    def test_push_pop(self):
        log, _ = make_log()
        log.push_frame(checkpoint="outer")
        assert log.depth == 1
        assert log.current.checkpoint == "outer"
        log.pop_frame()
        assert log.depth == 0

    def test_current_on_empty_raises(self):
        log, _ = make_log()
        with pytest.raises(TransactionError):
            log.current

    def test_reset_clears_pointer(self):
        log, mem = make_log()
        log.push_frame()
        log.append(0, mem, IDENTITY)
        log.reset()
        assert log.depth == 0
        assert log.total_records == 0


class TestAppendAndUnroll:
    def test_append_captures_whole_block(self):
        log, mem = make_log()
        for i in range(8):
            mem.store(i * WORD_BYTES, 100 + i)
        log.push_frame()
        record = log.append(0, mem, IDENTITY)
        # The block's words in address order: word i is at byte 8 * i.
        assert len(record.old_words) == 8
        assert record.old_words[0] == 100
        assert record.old_words[56 // WORD_BYTES] == 107

    def test_unroll_restores_lifo(self):
        log, mem = make_log()
        mem.store(0, 1)
        mem.store(64, 2)
        log.push_frame()
        log.append(0, mem, IDENTITY)
        mem.store(0, 11)          # transactional update, in place
        log.append(64, mem, IDENTITY)
        mem.store(64, 22)
        undone = log.unroll_frame(mem, IDENTITY)
        assert undone == 2
        assert mem.load(0) == 1
        assert mem.load(64) == 2
        assert log.depth == 0

    def test_unroll_restores_even_after_multiple_writes(self):
        log, mem = make_log()
        mem.store(0, 5)
        log.push_frame()
        log.append(0, mem, IDENTITY)
        mem.store(0, 6)
        mem.store(0, 7)  # second write, not re-logged (filter's job)
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(0) == 5

    def test_unroll_uses_current_translation(self):
        """Abort after paging must restore through the *new* mapping."""
        log, mem = make_log()
        mapping = {0: 0x1000}
        translate = lambda v: mapping[v & ~63] + (v & 63)
        mem.store(0x1000, 9)
        log.push_frame()
        log.append(0, mem, translate)
        mem.store(0x1000, 10)
        # Page moved: same virtual block now at a new physical frame.
        mapping[0] = 0x2000
        mem.store(0x2000, 10)
        log.unroll_frame(mem, translate)
        assert mem.load(0x2000) == 9

    def test_append_translates_once_per_block(self):
        """A block never straddles a page, so one translation serves it.

        The page is unmapped until ``append`` touches it, and its frame is
        a recycled one still holding data, so the record must come from
        the frame that first translation allocates.
        """
        page = 4096
        amap = AddressMap(block_bytes=64, page_bytes=page)
        mem = PhysicalMemory(1 << 20)
        allocator = FrameAllocator(amap, 1 << 20)
        recycled = allocator.allocate()
        for offset in range(0, page, WORD_BYTES):
            mem.store(recycled + offset, 1000 + offset)
        allocator.release(recycled)
        table = PageTable(amap, allocator)
        calls = []

        def counting(vaddr):
            calls.append(vaddr)
            return table.translate(vaddr)

        log = UndoLog(block_bytes=64)
        log.push_frame()
        vblock = 5 * page + page - 64      # last block of its page
        record = log.append(vblock, mem, counting)
        assert calls == [vblock]
        per_word = tuple(mem.load(table.translate(vaddr))
                         for vaddr in range(vblock, vblock + 64, WORD_BYTES))
        assert record.old_words == per_word
        assert record.old_words[0] == 1000 + page - 64

    def test_unroll_translates_once_per_record(self):
        """The restore, like the capture, translates each block once."""
        log, mem = make_log()
        calls = []

        def counting(vaddr):
            calls.append(vaddr)
            return vaddr

        mem.store(0, 1)
        mem.store(64 + 8, 2)
        log.push_frame()
        log.append(0, mem, IDENTITY)
        log.append(64, mem, IDENTITY)
        mem.store(0, 10)
        mem.store(64 + 8, 20)
        assert log.unroll_frame(mem, counting) == 2
        assert calls == [64, 0]          # one per record, LIFO
        assert (mem.load(0), mem.load(64 + 8)) == (1, 2)


class TestNestingSemantics:
    def test_merge_into_parent_concatenates_records(self):
        log, mem = make_log()
        log.push_frame()
        log.append(0, mem, IDENTITY)
        log.push_frame(saved_signature="snap")
        log.append(64, mem, IDENTITY)
        child = log.merge_into_parent()
        assert child.saved_signature == "snap"
        assert log.depth == 1
        assert len(log.current.records) == 2

    def test_merge_requires_parent(self):
        log, mem = make_log()
        log.push_frame()
        with pytest.raises(TransactionError):
            log.merge_into_parent()

    def test_open_commit_discards_child_records(self):
        log, mem = make_log()
        mem.store(64, 1)
        log.push_frame()
        log.push_frame(is_open=True)
        log.append(64, mem, IDENTITY)
        mem.store(64, 2)
        log.discard_child()
        assert log.depth == 1
        assert log.current.records == []
        # Parent abort must NOT undo the open-committed write.
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(64) == 2

    def test_discard_requires_parent(self):
        log, _ = make_log()
        log.push_frame()
        with pytest.raises(TransactionError):
            log.discard_child()

    def test_nested_abort_then_parent_abort(self):
        log, mem = make_log()
        mem.store(0, 1)
        mem.store(64, 2)
        log.push_frame()
        log.append(0, mem, IDENTITY)
        mem.store(0, 10)
        log.push_frame()
        log.append(64, mem, IDENTITY)
        mem.store(64, 20)
        # Partial abort of the child restores only the child's writes.
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(64) == 2
        assert mem.load(0) == 10
        # Then the parent aborts too.
        log.unroll_frame(mem, IDENTITY)
        assert mem.load(0) == 1

    def test_total_records(self):
        log, mem = make_log()
        log.push_frame()
        log.append(0, mem, IDENTITY)
        log.push_frame()
        log.append(64, mem, IDENTITY)
        assert log.total_records == 2

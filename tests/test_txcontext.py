"""Tests for TxContext: begin/commit/abort, nesting, escapes, timestamps."""

import pytest

from repro.common.errors import TransactionError
from repro.common.stats import StatsRegistry
from repro.core.txcontext import TxContext
from repro.mem.physical import PhysicalMemory
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature

IDENTITY = lambda v: v


def make_ctx(tid=0):
    stats = StatsRegistry()
    ctx = TxContext(
        thread_id=tid,
        signature=ReadWriteSignature(PerfectSignature(), PerfectSignature()),
        stats=stats)
    return ctx, stats, PhysicalMemory(1 << 20)


class TestLifecycle:
    def test_begin_sets_timestamp(self):
        ctx, _, _ = make_ctx(tid=3)
        ctx.begin(now=100)
        assert ctx.in_tx
        assert ctx.timestamp == (100, 3)

    def test_commit_outer_clears_everything(self):
        ctx, stats, _ = make_ctx()
        ctx.begin(now=1)
        ctx.signature.insert_read(64)
        assert ctx.commit() is True
        assert not ctx.in_tx
        assert ctx.timestamp is None
        assert ctx.signature.is_empty
        assert stats.value("tm.commits") == 1

    def test_commit_outside_tx_raises(self):
        ctx, _, _ = make_ctx()
        with pytest.raises(TransactionError):
            ctx.commit()

    def test_abort_restores_memory_and_counts(self):
        ctx, stats, mem = make_ctx()
        mem.store(0, 5)
        ctx.begin(now=1)
        ctx.log.append(0, mem, IDENTITY)
        mem.store(0, 9)
        undone = ctx.abort_all(mem, IDENTITY)
        assert undone == 1
        assert mem.load(0) == 5
        assert not ctx.in_tx
        assert stats.value("tm.aborts") == 1

    def test_abort_outside_tx_raises(self):
        ctx, _, mem = make_ctx()
        with pytest.raises(TransactionError):
            ctx.abort_innermost(mem, IDENTITY)

    def test_timestamp_retained_across_abort(self):
        """LogTM keeps the timestamp on abort: retries keep their priority."""
        ctx, _, mem = make_ctx(tid=1)
        ctx.begin(now=10)
        first_ts = ctx.timestamp
        ctx.abort_all(mem, IDENTITY)
        assert ctx.timestamp == first_ts
        ctx.begin(now=500)
        assert ctx.timestamp == first_ts  # retry keeps old priority
        ctx.commit()
        ctx.begin(now=600)
        assert ctx.timestamp == (600, 1)  # fresh tx gets a fresh timestamp


class TestNesting:
    def test_closed_nest_commit_merges(self):
        ctx, _, mem = make_ctx()
        ctx.begin(now=1)
        ctx.signature.insert_write(64)
        ctx.begin(now=2)  # nested
        assert ctx.depth == 2
        ctx.signature.insert_write(128)
        assert ctx.commit() is False  # inner commit, outer still open
        assert ctx.depth == 1
        # The accumulated signature keeps both writes (merged).
        assert ctx.signature.write.contains(64)
        assert ctx.signature.write.contains(128)

    def test_open_nest_commit_restores_parent_signature(self):
        ctx, _, mem = make_ctx()
        ctx.begin(now=1)
        ctx.signature.insert_write(64)
        ctx.begin(now=2, is_open=True)
        ctx.signature.insert_write(128)
        ctx.commit()
        # Isolation on the open child's block is released...
        assert not ctx.signature.write.contains(128)
        # ...but the parent's is kept.
        assert ctx.signature.write.contains(64)

    def test_open_outermost_rejected(self):
        ctx, _, _ = make_ctx()
        with pytest.raises(TransactionError):
            ctx.begin(now=1, is_open=True)

    def test_partial_abort_restores_parent_signature(self):
        ctx, _, mem = make_ctx()
        mem.store(128, 7)
        ctx.begin(now=1)
        ctx.signature.insert_write(64)
        ctx.begin(now=2)
        ctx.signature.insert_write(128)
        ctx.log.append(128, mem, IDENTITY)
        mem.store(128, 8)
        undone = ctx.abort_innermost(mem, IDENTITY)
        assert undone == 1
        assert mem.load(128) == 7
        assert ctx.depth == 1
        assert ctx.in_tx
        assert ctx.signature.write.contains(64)
        assert not ctx.signature.write.contains(128)

    def test_deep_nesting_unbounded(self):
        ctx, _, mem = make_ctx()
        ctx.begin(now=1)
        depth = 50
        for i in range(depth):
            ctx.begin(now=2 + i)
        assert ctx.depth == depth + 1
        for _ in range(depth):
            assert ctx.commit() is False
        assert ctx.commit() is True

    def test_nested_begin_clears_log_filter(self):
        ctx, _, _ = make_ctx()
        ctx.begin(now=1)
        assert ctx.log_filter.should_log(0)
        assert not ctx.log_filter.should_log(0)
        ctx.begin(now=2)  # nested begin must clear the filter
        assert ctx.log_filter.should_log(0)


class TestEscapeActions:
    def test_escape_suppresses_transactional_flag(self):
        ctx, _, _ = make_ctx()
        ctx.begin(now=1)
        assert ctx.transactional
        ctx.begin_escape()
        assert not ctx.transactional
        assert ctx.in_tx
        ctx.end_escape()
        assert ctx.transactional

    def test_escape_outside_tx_rejected(self):
        ctx, _, _ = make_ctx()
        with pytest.raises(TransactionError):
            ctx.begin_escape()

    def test_unbalanced_end_rejected(self):
        ctx, _, _ = make_ctx()
        ctx.begin(now=1)
        with pytest.raises(TransactionError):
            ctx.end_escape()

    def test_commit_inside_escape_rejected(self):
        ctx, _, _ = make_ctx()
        ctx.begin(now=1)
        ctx.begin_escape()
        with pytest.raises(TransactionError):
            ctx.commit()

    def test_abort_resets_escape_depth(self):
        ctx, _, mem = make_ctx()
        ctx.begin(now=1)
        ctx.begin_escape()
        ctx.abort_all(mem, IDENTITY)
        assert ctx.escape_depth == 0


class TestConflictBookkeeping:
    def test_note_nacked_older_sets_possible_cycle(self):
        ctx, _, _ = make_ctx(tid=5)
        ctx.begin(now=100)
        ctx.note_nacked_older(requester_ts=(50, 1))  # older requester
        assert ctx.possible_cycle

    def test_younger_requester_does_not_set_flag(self):
        ctx, _, _ = make_ctx(tid=5)
        ctx.begin(now=100)
        ctx.note_nacked_older(requester_ts=(200, 1))
        assert not ctx.possible_cycle

    def test_nontx_requester_does_not_set_flag(self):
        ctx, _, _ = make_ctx(tid=5)
        ctx.begin(now=100)
        ctx.note_nacked_older(requester_ts=None)
        assert not ctx.possible_cycle

    def test_possible_cycle_reset_on_abort(self):
        ctx, _, mem = make_ctx()
        ctx.begin(now=100)
        ctx.possible_cycle = True
        ctx.abort_all(mem, IDENTITY)
        assert not ctx.possible_cycle

    def test_footprint_recorded(self):
        ctx, stats, _ = make_ctx()
        ctx.begin(now=1)
        ctx.signature.insert_read(0)
        ctx.signature.insert_read(64)
        ctx.signature.insert_write(128)
        ctx.record_commit_footprint()
        ctx.commit()
        assert stats.histogram("tm.read_set_blocks").maximum == 2
        assert stats.histogram("tm.write_set_blocks").maximum == 1

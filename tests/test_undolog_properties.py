"""Property-based tests: eager version management against a reference model.

Hypothesis generates random programs of writes and nested begin/commit/abort
decisions; a pure-Python reference model tracks what memory must contain
afterwards. The undo log's LIFO block restoration must agree exactly —
including partial aborts and open-nest commits.
"""

from hypothesis import given, settings, strategies as st

from repro.common.stats import StatsRegistry
from repro.core.txcontext import TxContext
from repro.mem.physical import PhysicalMemory
from repro.signatures.perfect import PerfectSignature
from repro.signatures.rwpair import ReadWriteSignature

IDENTITY = lambda v: v

# Program alphabet: writes to a small address pool plus nesting actions.
actions = st.lists(st.one_of(
    st.tuples(st.just("write"),
              st.integers(min_value=0, max_value=7),    # block index
              st.integers(min_value=0, max_value=7),    # word-in-block
              st.integers(min_value=0, max_value=999)),  # value (0 frees)
    st.tuples(st.just("begin_closed"), st.just(0), st.just(0), st.just(0)),
    st.tuples(st.just("begin_open"), st.just(0), st.just(0), st.just(0)),
    st.tuples(st.just("commit"), st.just(0), st.just(0), st.just(0)),
    st.tuples(st.just("abort_inner"), st.just(0), st.just(0), st.just(0)),
), min_size=1, max_size=40)


def make_ctx():
    return TxContext(
        thread_id=0,
        signature=ReadWriteSignature(PerfectSignature(), PerfectSignature()),
        stats=StatsRegistry())


class ReferenceModel:
    """Nesting-aware shadow of what memory must contain.

    Mirrors Nested-LogTM's *block-granular undo log* semantics precisely:
    each frame records, per block, the whole-block image captured at the
    frame's first write to that block. A closed commit concatenates the
    child's records under the parent (on a later abort the parent's older
    image wins, exactly like LIFO log unrolling); an open commit discards
    the child's records — its writes survive any later abort *unless* an
    ancestor also logged the same block (the ancestor's older image then
    legitimately clobbers them, a documented property of log-based open
    nesting).
    """

    def __init__(self, initial):
        #: Stack of frames: {"undo": {block: {addr: old}}}.
        self.frames = []
        self.mem = dict(initial)

    def _block_image(self, block):
        return {block + off: self.mem[block + off]
                for off in range(0, 64, 8)}

    def write(self, addr, value):
        if self.frames:
            block = addr & ~63
            frame = self.frames[-1]
            if block not in frame["undo"]:
                frame["undo"][block] = self._block_image(block)
        self.mem[addr] = value

    def begin(self, is_open):
        self.frames.append({"undo": {}})

    def commit(self):
        if not self.frames:
            return
        child = self.frames.pop()
        is_outer = not self.frames
        if is_outer:
            return
        frame = self.frames[-1]
        # Closed commit: parent absorbs the child's records; the parent's
        # own (older) image wins for overlapping blocks. Open commit:
        # records dropped (nothing merged). The caller tells us which via
        # the was_open flag set at begin time — but since the undo
        # structure alone distinguishes the outcomes, we parametrize:
        if child.get("open"):
            return
        for block, image in child["undo"].items():
            frame["undo"].setdefault(block, image)

    def begin_open_mark(self):
        self.frames[-1]["open"] = True

    def abort_inner(self):
        if not self.frames:
            return
        frame = self.frames.pop()
        for image in frame["undo"].values():
            self.mem.update(image)


@given(program=actions)
@settings(max_examples=150, deadline=None)
def test_log_matches_reference(program):
    mem = PhysicalMemory(1 << 20)
    ctx = make_ctx()
    # Seed initial values so restores are observable.
    initial = {}
    for block in range(8):
        for word in range(8):
            addr = block * 64 + word * 8
            mem.store(addr, 10_000 + block * 8 + word)
            initial[addr] = 10_000 + block * 8 + word
    ref = ReferenceModel(initial)

    now = [0]

    def tx_write(block, word, value):
        addr = block * 64 + word * 8
        vblock = block * 64
        if ctx.transactional and ctx.log_filter.should_log(vblock):
            ctx.log.append(vblock, mem, IDENTITY)
        mem.store(addr, value)
        ref.write(addr, value)
        if ctx.transactional:
            ctx.signature.insert_write(vblock)

    for kind, block, word, value in program:
        now[0] += 1
        if kind == "write":
            if ctx.in_tx:  # only transactional writes are undoable
                tx_write(block, word, value)
        elif kind == "begin_closed":
            if ctx.depth < 6:
                ctx.begin(now[0])
                ref.begin(is_open=False)
        elif kind == "begin_open":
            if ctx.in_tx and ctx.depth < 6:
                ctx.begin(now[0], is_open=True)
                ref.begin(is_open=True)
                ref.begin_open_mark()
        elif kind == "commit":
            if ctx.in_tx:
                ctx.commit()
                ref.commit()
        elif kind == "abort_inner":
            if ctx.in_tx:
                ctx.abort_innermost(mem, IDENTITY)
                ref.abort_inner()

    # Close any open nest so the final state is committed.
    while ctx.in_tx:
        ctx.commit()
        ref.commit()

    for addr, expected in ref.mem.items():
        assert mem.load(addr) == expected, (
            f"addr {addr:#x}: memory {mem.load(addr)} != "
            f"reference {expected}")


@given(program=actions)
@settings(max_examples=100, deadline=None)
def test_abort_all_restores_pre_transaction_image(program):
    """Whatever happens inside the outer transaction, abort_all restores
    exactly the pre-transaction memory image."""
    mem = PhysicalMemory(1 << 20)
    ctx = make_ctx()
    snapshot = {}
    for block in range(8):
        for word in range(8):
            addr = block * 64 + word * 8
            mem.store(addr, 777 + block * 8 + word)
            snapshot[addr] = 777 + block * 8 + word

    ctx.begin(1)
    now = 1
    open_committed = False
    for kind, block, word, value in program:
        now += 1
        if kind == "write":
            vblock = block * 64
            if ctx.transactional and ctx.log_filter.should_log(vblock):
                ctx.log.append(vblock, mem, IDENTITY)
            mem.store(block * 64 + word * 8, value)
            if ctx.transactional:
                ctx.signature.insert_write(vblock)
        elif kind == "begin_closed" and ctx.depth < 6:
            ctx.begin(now)
        elif kind == "begin_open" and ctx.depth < 6:
            ctx.begin(now, is_open=True)
        elif kind == "commit" and ctx.depth > 1:
            if ctx.log.current.is_open:
                open_committed = True
            ctx.commit()
        elif kind == "abort_inner" and ctx.depth > 1:
            ctx.abort_innermost(mem, IDENTITY)

    ctx.abort_all(mem, IDENTITY)
    if open_committed:
        # Open-committed children legally survive the outer abort; the
        # strict image check only applies without them.
        return
    for addr, expected in snapshot.items():
        assert mem.load(addr) == expected

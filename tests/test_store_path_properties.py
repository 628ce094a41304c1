"""Property tests: the store path's value objects against reference models.

``PhysicalMemory`` keeps its words in 64-byte lines and must read and
write exactly as a plain dict of words would, for every range shape; the
TLB's remembered last entry must never change what an ``OrderedDict``
LRU returns or the order it keeps; and the positionally built ``Op`` and
``UndoRecord`` must equal their keyword-built forms.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.common.stats import StatsRegistry
from repro.core.undolog import UndoLog, UndoRecord
from repro.mem.physical import WORD_BYTES, PhysicalMemory
from repro.mem.tlb import Tlb
from repro.workloads import Op, OpKind

PAGE = 8192
CAPACITY = 3 * PAGE

# -- PhysicalMemory against a word dict ------------------------------------


class ReferenceMemory:
    """The textbook store: one dict entry per nonzero word."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.words = {}

    def load(self, addr):
        if not 0 <= addr < self.capacity:
            raise IndexError(addr)
        return self.words.get(addr & ~(WORD_BYTES - 1), 0)

    def store(self, addr, value):
        old = self.load(addr)
        word = addr & ~(WORD_BYTES - 1)
        if value == 0:
            self.words.pop(word, None)
        else:
            self.words[word] = value
        return old

    def _check_range(self, addr, end):
        if not 0 <= addr <= end <= self.capacity:
            raise IndexError(addr)

    def load_block(self, addr, nbytes):
        self._check_range(addr, addr + nbytes)
        return tuple(self.words.get(a & ~(WORD_BYTES - 1), 0)
                     for a in range(addr, addr + nbytes, WORD_BYTES))

    def store_block(self, addr, words):
        self._check_range(addr, addr + len(words) * WORD_BYTES)
        for k, value in enumerate(words):
            self.store(addr + k * WORD_BYTES, value)

    def copy_range(self, src, dst, nbytes):
        if nbytes % WORD_BYTES:
            raise ValueError(nbytes)
        self.store_block(dst, self.load_block(src, nbytes))


#: Addresses in three pages: whole lines, words of lines, and sub-word
#: offsets (a sub-word address names its containing word).
line_addrs = st.builds(lambda page, line: page * PAGE + line * 64,
                       st.integers(0, 2), st.integers(0, 7))
word_addrs = st.builds(lambda line, word, sub: line + word * WORD_BYTES + sub,
                       line_addrs, st.integers(0, 7),
                       st.sampled_from([0, 0, 0, 3]))
#: Addresses at and past either end of memory.
edge_addrs = st.sampled_from([-64, -8, -1, CAPACITY - 64, CAPACITY - 8,
                              CAPACITY - 1, CAPACITY, CAPACITY + 64])
addrs = st.one_of(line_addrs, word_addrs, word_addrs, edge_addrs)
values = st.one_of(st.just(0), st.integers(1, 9), st.integers(1, 1 << 64))
#: One line, single words, and ranges over two or more lines.
sizes = st.sampled_from([64, 64, 64, 0, 8, 16, 56, 72, 128, 200])

memory_ops = st.lists(st.one_of(
    st.tuples(st.just("store"), addrs, values),
    st.tuples(st.just("load"), addrs),
    st.tuples(st.just("load_block"), addrs, sizes),
    st.tuples(st.just("store_block"), addrs,
              st.lists(values, max_size=24)),
    st.tuples(st.just("copy_range"), addrs, addrs,
              st.sampled_from([64, 128, 200, 12])),
    st.tuples(st.just("copy_page"), st.integers(0, 2), st.integers(0, 2)),
), min_size=1, max_size=40)


def _outcome(call):
    """A call's result, or the type of the error it raised."""
    try:
        return call()
    except (IndexError, ValueError) as exc:
        return type(exc)


@given(ops=memory_ops)
@settings(max_examples=300, deadline=None)
def test_memory_matches_a_word_dict(ops):
    mem, ref = PhysicalMemory(CAPACITY), ReferenceMemory(CAPACITY)
    touched = set()
    for op in ops:
        name, args = op[0], op[1:]
        if name == "copy_page":
            name, args = "copy_range", (args[0] * PAGE, args[1] * PAGE, PAGE)
        got = _outcome(lambda: getattr(mem, name)(*args))
        want = _outcome(lambda: getattr(ref, name)(*args))
        assert got == want, op
        if isinstance(got, tuple):
            assert type(got) is tuple
        assert len(mem) == len(ref.words), op
        touched.update(ref.words)
        touched.update(a & ~(WORD_BYTES - 1) for a in args
                       if isinstance(a, int) and 0 <= a < CAPACITY)
    for word in sorted(touched):
        assert mem.load(word) == ref.load(word), hex(word)


def test_zero_stores_read_back_zero_without_a_line():
    mem = PhysicalMemory(CAPACITY)
    assert mem.store(0x208, 0) == 0
    mem.store_block(0x400, (0,) * 3)
    assert mem.load_block(0x200, 64) == (0,) * 8
    assert len(mem) == 0


def test_block_reads_are_snapshots():
    """A captured line is a copy: later stores do not reach into it."""
    mem = PhysicalMemory(CAPACITY)
    mem.store(0x40, 5)
    before = mem.load_block(0x40, 64)
    mem.store(0x40, 6)
    assert before[0] == 5
    words = [1] * 8
    mem.store_block(0x80, words)
    words[0] = 9
    assert mem.load(0x80) == 1


# -- Tlb against an OrderedDict LRU ----------------------------------------


class ReferenceTlb:
    def __init__(self, entries):
        self.entries = entries
        self.map = OrderedDict()

    def lookup(self, asid, vpage):
        tag = (asid, vpage)
        if tag not in self.map:
            return None
        self.map.move_to_end(tag)
        return self.map[tag]

    def fill(self, asid, vpage, frame):
        tag = (asid, vpage)
        if tag in self.map:
            self.map.move_to_end(tag)
        elif len(self.map) >= self.entries:
            self.map.popitem(last=False)
        self.map[tag] = frame

    def invalidate(self, asid, vpage):
        return self.map.pop((asid, vpage), None) is not None


tags = st.tuples(st.integers(0, 1), st.sampled_from([0, PAGE, 2 * PAGE,
                                                     5 * PAGE]))
tlb_ops = st.lists(st.one_of(
    st.tuples(st.just("lookup"), tags),
    st.tuples(st.just("lookup"), tags),
    st.tuples(st.just("fill"), tags,
              st.sampled_from([0, PAGE, 7 * PAGE, 9 * PAGE])),
    st.tuples(st.just("invalidate"), tags),
), min_size=1, max_size=60)


@given(entries=st.sampled_from([1, 1, 2, 3, 4]), ops=tlb_ops)
@settings(max_examples=300, deadline=None)
def test_tlb_matches_a_reference_lru(entries, ops):
    tlb, ref = Tlb(entries=entries), ReferenceTlb(entries)
    for op in ops:
        name, (asid, vpage), extra = op[0], op[1], op[2:]
        got = getattr(tlb, name)(asid, vpage, *extra)
        want = getattr(ref, name)(asid, vpage, *extra)
        assert got == want, op
        assert list(tlb._map.items()) == list(ref.map.items()), op
        assert tlb.occupancy == len(ref.map)


def test_frame_zero_is_a_hit():
    """Frame 0 is a real frame (the model checker maps page 0 to it)."""
    tlb = Tlb(entries=2)
    tlb.fill(0, 0, 0)
    assert tlb.lookup(0, 0) == 0
    assert tlb.lookup(0, 0) == 0        # the remembered entry
    tlb.invalidate(0, 0)
    assert tlb.lookup(0, 0) is None


# -- Op and UndoRecord built positionally ----------------------------------


@given(vaddr=st.integers(0, 1 << 48), value=st.integers(-(1 << 64), 1 << 64))
@settings(max_examples=100, deadline=None)
def test_op_builders_equal_their_keyword_forms(vaddr, value):
    pairs = [
        (Op.load(vaddr), Op(OpKind.LOAD, vaddr=vaddr)),
        (Op.store(vaddr, value), Op(OpKind.STORE, vaddr=vaddr, value=value)),
        (Op.store(vaddr), Op(OpKind.STORE, vaddr=vaddr, value=1)),
        (Op.incr(vaddr, value), Op(OpKind.INCR, vaddr=vaddr, value=value)),
        (Op.incr(vaddr), Op(OpKind.INCR, vaddr=vaddr, value=1)),
        (Op.compute(vaddr), Op(OpKind.COMPUTE, cycles=vaddr)),
    ]
    for built, keyword in pairs:
        assert type(built) is Op
        assert built == keyword
        assert hash(built) == hash(keyword)
        assert built._asdict() == keyword._asdict()


def test_undo_record_keeps_its_fields():
    assert UndoRecord._fields == ("vblock", "old_words")
    mem = PhysicalMemory(CAPACITY)
    mem.store(0x1008, 3)
    log = UndoLog(block_bytes=64, stats=StatsRegistry(), thread_id=0)
    log.push_frame()
    record = log.append(0x1000, mem, lambda vaddr: vaddr)
    assert type(record) is UndoRecord
    assert record == UndoRecord(vblock=0x1000,
                                old_words=(0, 3, 0, 0, 0, 0, 0, 0))
    assert (record.vblock, record.old_words[1]) == (0x1000, 3)


"""Tests for the memory substrate: addresses, physical memory, VM."""

import pytest

from repro.common.errors import ConfigError
from repro.mem.address import AddressMap
from repro.mem.physical import WORD_BYTES, PhysicalMemory
from repro.mem.vm import FrameAllocator, PageTable


class TestAddressMap:
    def test_block_alignment(self):
        amap = AddressMap(block_bytes=64)
        assert amap.block_of(0) == 0
        assert amap.block_of(63) == 0
        assert amap.block_of(64) == 64
        assert amap.block_of(130) == 128

    def test_block_index(self):
        amap = AddressMap(block_bytes=64)
        assert amap.block_index(0) == 0
        assert amap.block_index(640) == 10

    def test_page_math(self):
        amap = AddressMap(block_bytes=64, page_bytes=8192)
        assert amap.page_of(8191) == 0
        assert amap.page_of(8192) == 8192

    def test_bank_interleave_by_block(self):
        amap = AddressMap(block_bytes=64, num_banks=16)
        assert amap.bank_of(0) == 0
        assert amap.bank_of(64) == 1
        assert amap.bank_of(64 * 16) == 0
        assert amap.bank_of(64 * 17 + 5) == 1

    def test_same_block(self):
        amap = AddressMap(block_bytes=64)
        assert amap.block_of(10) == amap.block_of(60)
        assert amap.block_of(60) != amap.block_of(70)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            AddressMap(block_bytes=48)
        with pytest.raises(ConfigError):
            AddressMap(block_bytes=64, page_bytes=100)
        with pytest.raises(ConfigError):
            AddressMap(num_banks=0)


class TestPhysicalMemory:
    def test_default_zero(self):
        mem = PhysicalMemory(1 << 20)
        assert mem.load(0x100) == 0

    def test_store_returns_old(self):
        mem = PhysicalMemory(1 << 20)
        assert mem.store(0x40, 7) == 0
        assert mem.store(0x40, 9) == 7
        assert mem.load(0x40) == 9

    def test_sub_word_addresses_share_word(self):
        mem = PhysicalMemory(1 << 20)
        mem.store(0x40, 5)
        assert mem.load(0x43) == 5

    def test_zero_store_frees(self):
        mem = PhysicalMemory(1 << 20)
        mem.store(0x40, 5)
        mem.store(0x40, 0)
        assert len(mem) == 0

    def test_out_of_range(self):
        mem = PhysicalMemory(1024)
        with pytest.raises(IndexError):
            mem.load(2048)
        with pytest.raises(IndexError):
            mem.store(-8, 1)

    def test_copy_range(self):
        mem = PhysicalMemory(1 << 20)
        for i in range(4):
            mem.store(0x1000 + i * WORD_BYTES, i + 1)
        mem.copy_range(0x1000, 0x2000, 4 * WORD_BYTES)
        for i in range(4):
            assert mem.load(0x2000 + i * WORD_BYTES) == i + 1

    def test_copy_range_rejects_unaligned_length(self):
        with pytest.raises(ValueError):
            PhysicalMemory(1 << 20).copy_range(0, 64, 12)

    def test_load_block_agrees_with_load(self):
        mem = PhysicalMemory(1 << 20)
        mem.store(0x1008, 3)
        mem.store(0x1030, 9)
        block = mem.load_block(0x1000, 64)
        assert block == tuple(mem.load(0x1000 + off)
                              for off in range(0, 64, WORD_BYTES))
        assert block == (0, 3, 0, 0, 0, 0, 9, 0)   # missing words read 0

    def test_store_block_agrees_with_store(self):
        words = (5, 0, 7, 0, 0, 1, 0, 2)
        by_block, by_word = PhysicalMemory(1 << 20), PhysicalMemory(1 << 20)
        for mem in (by_block, by_word):
            for off in range(0, 64, WORD_BYTES):
                mem.store(0x2000 + off, 100 + off)   # every word nonzero
        by_block.store_block(0x2000, words)
        for i, value in enumerate(words):
            by_word.store(0x2000 + i * WORD_BYTES, value)
        assert by_block.load_block(0x2000, 64) == \
            by_word.load_block(0x2000, 64) == words
        assert len(by_block) == len(by_word) == 4   # stored zeros freed

    def test_block_ops_reject_blocks_crossing_capacity(self):
        mem = PhysicalMemory(1024)
        mem.load_block(1024 - 64, 64)               # the last block fits
        with pytest.raises(IndexError):
            mem.load_block(1024 - 32, 64)
        with pytest.raises(IndexError):
            mem.store_block(1024 - 32, (1,) * 8)
        with pytest.raises(IndexError):
            mem.load_block(-64, 64)


class TestFrameAllocator:
    def test_unique_frames(self):
        amap = AddressMap(page_bytes=4096)
        alloc = FrameAllocator(amap, 1 << 20)
        frames = {alloc.allocate() for _ in range(10)}
        assert len(frames) == 10
        assert all(f % 4096 == 0 for f in frames)

    def test_release_reuses(self):
        amap = AddressMap(page_bytes=4096)
        alloc = FrameAllocator(amap, 1 << 20)
        f = alloc.allocate()
        alloc.release(f)
        assert alloc.allocate() == f

    def test_exhaustion(self):
        amap = AddressMap(page_bytes=4096)
        alloc = FrameAllocator(amap, 8192)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(MemoryError):
            alloc.allocate()


class TestPageTable:
    def _table(self):
        amap = AddressMap(page_bytes=4096)
        return PageTable(amap, FrameAllocator(amap, 1 << 22)), amap

    def test_translation_preserves_offset(self):
        table, _ = self._table()
        paddr = table.translate(0x1000_0123)
        assert paddr % 4096 == 0x123

    def test_same_page_same_frame(self):
        table, _ = self._table()
        a = table.translate(0x1000_0000)
        b = table.translate(0x1000_0FF8)
        assert a // 4096 == b // 4096

    def test_different_pages_different_frames(self):
        table, _ = self._table()
        a = table.translate(0x1000_0000)
        b = table.translate(0x1000_1000)
        assert a // 4096 != b // 4096

    def test_relocate_moves_data_and_mapping(self):
        table, amap = self._table()
        mem = PhysicalMemory(1 << 22)
        vaddr = 0x2000_0008
        mem.store(table.translate(vaddr), 77)
        old_frame = table.mapping(amap.page_of(vaddr))
        reloc = table.relocate(vaddr, mem)
        assert reloc.old_frame == old_frame
        assert reloc.new_frame != old_frame
        assert table.mapping(amap.page_of(vaddr)) == reloc.new_frame
        assert mem.load(table.translate(vaddr)) == 77
        assert table.relocations == 1

    def test_relocate_unmapped_page_raises(self):
        table, _ = self._table()
        with pytest.raises(KeyError):
            table.relocate(0x3000_0000, PhysicalMemory(1 << 22))

    def test_release_old_frame_idempotent(self):
        table, _ = self._table()
        mem = PhysicalMemory(1 << 22)
        table.translate(0x1000)
        reloc = table.relocate(0x1000, mem)
        reloc.release_old_frame()
        reloc.release_old_frame()  # second call is a no-op

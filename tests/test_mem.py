"""Tests for addresses, regions, and the backing store."""

import pytest

from repro.config import config_16
from repro.mem.address import AddressMap
from repro.mem.memory import BackingStore
from repro.mem.regions import RegionAllocator


@pytest.fixture
def amap():
    return AddressMap(config_16())


class TestAddressMap:
    def test_line_of(self, amap):
        assert amap.line_of(0) == 0
        assert amap.line_of(15) == 0
        assert amap.line_of(16) == 1

    def test_word_in_line(self, amap):
        assert amap.word_in_line(0) == 0
        assert amap.word_in_line(17) == 1

    def test_line_base_roundtrip(self, amap):
        for addr in (0, 5, 16, 100, 12345):
            line = amap.line_of(addr)
            assert amap.line_base(line) <= addr < amap.line_base(line + 1)

    def test_words_of_line(self, amap):
        words = list(amap.words_of_line(2))
        assert len(words) == 16
        assert words[0] == 32
        assert words[-1] == 47

    def test_home_bank_interleaves(self, amap):
        banks = {amap.home_bank(line) for line in range(64)}
        assert banks == set(range(16))

    def test_home_bank_of_addr(self, amap):
        assert amap.home_bank_of_addr(16) == amap.home_bank(1)

    def test_align_up_to_line(self, amap):
        assert amap.align_up_to_line(0) == 0
        assert amap.align_up_to_line(1) == 16
        assert amap.align_up_to_line(16) == 16
        assert amap.align_up_to_line(17) == 32


class TestRegionAllocator:
    def test_allocations_are_disjoint(self, amap):
        allocator = RegionAllocator(amap)
        seen = set()
        for i in range(20):
            alloc = allocator.alloc(f"r{i}", nwords=i + 1)
            for addr in alloc:
                assert addr not in seen
                seen.add(addr)

    def test_address_zero_never_allocated(self, amap):
        allocator = RegionAllocator(amap)
        alloc = allocator.alloc("first", 1)
        assert alloc.base >= amap.words_per_line

    def test_region_identity_by_name(self, amap):
        allocator = RegionAllocator(amap)
        a = allocator.region("shared")
        b = allocator.region("shared")
        c = allocator.region("other")
        assert a is b
        assert a.region_id != c.region_id

    def test_region_of_tracks_every_word(self, amap):
        allocator = RegionAllocator(amap)
        alloc = allocator.alloc("data", 10)
        for addr in alloc:
            assert allocator.region_of(addr).name == "data"
        assert allocator.region_of(999999) is None

    def test_line_align_pads_both_sides(self, amap):
        allocator = RegionAllocator(amap)
        allocator.alloc("x", 3)
        padded = allocator.alloc("padded", 2, line_align=True)
        after = allocator.alloc("y", 1)
        assert padded.base % amap.words_per_line == 0
        assert amap.line_of(after.base) != amap.line_of(padded.base)

    def test_alloc_sync_padding_follows_policy(self, amap):
        padded = RegionAllocator(amap, pad_sync_vars=True)
        a = padded.alloc_sync("lock1")
        b = padded.alloc_sync("lock2")
        assert amap.line_of(a.base) != amap.line_of(b.base)

        unpadded = RegionAllocator(amap, pad_sync_vars=False)
        a = unpadded.alloc_sync("lock1")
        b = unpadded.alloc_sync("lock2")
        assert amap.line_of(a.base) == amap.line_of(b.base)

    def test_zero_words_rejected(self, amap):
        with pytest.raises(ValueError):
            RegionAllocator(amap).alloc("bad", 0)


class TestBackingStore:
    def test_unwritten_reads_zero(self):
        assert BackingStore().read(1234) == 0

    def test_write_read(self):
        store = BackingStore()
        store.write(10, 42)
        assert store.read(10) == 42

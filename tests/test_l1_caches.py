"""Tests for the L1 cache structures (MESI line-grain, DeNovo word-grain)."""

import pytest

from repro.config import config_16
from repro.mem.address import AddressMap
from repro.mem.l1 import DeNovoL1, DeNovoState, MesiL1, MesiState
from repro.mem.regions import Region


@pytest.fixture
def config():
    return config_16()


@pytest.fixture
def amap(config):
    return AddressMap(config)


class TestMesiL1:
    def test_insert_and_lookup(self, config):
        l1 = MesiL1(0, config)
        l1.insert(5, MesiState.SHARED)
        assert l1.state_of(5) is MesiState.SHARED
        assert l1.state_of(6) is None

    def test_set_state(self, config):
        l1 = MesiL1(0, config)
        l1.insert(5, MesiState.EXCLUSIVE)
        l1.set_state(5, MesiState.MODIFIED)
        assert l1.state_of(5) is MesiState.MODIFIED

    def test_set_state_missing_line(self, config):
        with pytest.raises(KeyError):
            MesiL1(0, config).set_state(5, MesiState.MODIFIED)

    def test_invalidate_returns_old_state(self, config):
        l1 = MesiL1(0, config)
        l1.insert(5, MesiState.MODIFIED)
        assert l1.invalidate(5) is MesiState.MODIFIED
        assert l1.invalidate(5) is None
        assert l1.state_of(5) is None

    def test_lru_eviction_within_set(self, config):
        l1 = MesiL1(0, config)
        num_sets = config.l1_sets
        # Fill one set beyond associativity: lines mapping to set 0.
        lines = [i * num_sets for i in range(config.l1_assoc + 1)]
        victims = [l1.insert(line, MesiState.SHARED) for line in lines]
        assert victims[:-1] == [None] * config.l1_assoc
        assert victims[-1] == (lines[0], MesiState.SHARED)

    def test_touch_refreshes_lru(self, config):
        l1 = MesiL1(0, config)
        num_sets = config.l1_sets
        lines = [i * num_sets for i in range(config.l1_assoc)]
        for line in lines:
            l1.insert(line, MesiState.SHARED)
        l1.state_of(lines[0])  # touch the would-be victim
        victim = l1.insert((config.l1_assoc) * num_sets, MesiState.SHARED)
        assert victim == (lines[1], MesiState.SHARED)

    def test_capacity_bounded(self, config):
        l1 = MesiL1(0, config)
        for line in range(config.l1_lines * 2):
            l1.insert(line, MesiState.SHARED)
        assert len(l1) <= config.l1_lines

    def test_set_state_does_not_refresh_lru(self, config):
        # A remote-initiated state change (owner downgraded to Shared by
        # another core's load) must not make the line recently-used here.
        l1 = MesiL1(0, config)
        num_sets = config.l1_sets
        lines = [i * num_sets for i in range(config.l1_assoc)]
        for line in lines:
            l1.insert(line, MesiState.EXCLUSIVE)
        l1.set_state(lines[0], MesiState.SHARED)  # oldest line, remote poke
        victim = l1.insert(config.l1_assoc * num_sets, MesiState.SHARED)
        assert victim == (lines[0], MesiState.SHARED)

    def test_set_state_keeps_untouched_order(self, config):
        l1 = MesiL1(0, config)
        num_sets = config.l1_sets
        lines = [i * num_sets for i in range(config.l1_assoc)]
        for line in lines:
            l1.insert(line, MesiState.SHARED)
        # Poking every line's state in reverse must leave LRU order intact.
        for line in reversed(lines):
            l1.set_state(line, MesiState.MODIFIED)
        victim = l1.insert(config.l1_assoc * num_sets, MesiState.SHARED)
        assert victim == (lines[0], MesiState.MODIFIED)


class TestDeNovoL1:
    def make(self, config, amap, evictions=None):
        def on_evict(addr, value):
            if evictions is not None:
                evictions.append((addr, value))

        return DeNovoL1(0, config, amap, on_evict)

    def test_fill_and_lookup(self, config, amap):
        l1 = self.make(config, amap)
        l1.fill_word(100, 7, DeNovoState.VALID)
        assert l1.state_of(100) is DeNovoState.VALID
        assert l1.value_of(100) == 7
        assert l1.state_of(101) is DeNovoState.INVALID

    def test_fill_invalid_rejected(self, config, amap):
        l1 = self.make(config, amap)
        with pytest.raises(ValueError):
            l1.fill_word(100, 7, DeNovoState.INVALID)

    def test_try_write_registered_requires_registered(self, config, amap):
        l1 = self.make(config, amap)
        l1.fill_word(100, 7, DeNovoState.VALID)
        assert l1.try_write_registered(100, 8) is False
        assert l1.value_of(100) == 7
        l1.fill_word(100, 7, DeNovoState.REGISTERED)
        assert l1.try_write_registered(100, 8) is True
        assert l1.value_of(100) == 8

    def test_downgrade_to_valid(self, config, amap):
        l1 = self.make(config, amap)
        l1.fill_word(100, 7, DeNovoState.REGISTERED)
        l1.downgrade(100, DeNovoState.VALID)
        assert l1.state_of(100) is DeNovoState.VALID
        assert l1.value_of(100) == 7

    def test_downgrade_to_invalid_drops_value(self, config, amap):
        l1 = self.make(config, amap)
        l1.fill_word(100, 7, DeNovoState.REGISTERED)
        l1.downgrade(100, DeNovoState.INVALID)
        assert l1.state_of(100) is DeNovoState.INVALID
        assert l1.value_of(100) is None

    def test_downgrade_ignores_non_registered(self, config, amap):
        l1 = self.make(config, amap)
        l1.fill_word(100, 7, DeNovoState.VALID)
        l1.downgrade(100, DeNovoState.INVALID)
        assert l1.state_of(100) is DeNovoState.VALID  # untouched

    def test_per_word_state_within_line(self, config, amap):
        l1 = self.make(config, amap)
        base = amap.line_base(10)
        l1.fill_word(base, 1, DeNovoState.REGISTERED)
        l1.fill_word(base + 1, 2, DeNovoState.VALID)
        assert l1.state_of(base) is DeNovoState.REGISTERED
        assert l1.state_of(base + 1) is DeNovoState.VALID
        assert l1.state_of(base + 2) is DeNovoState.INVALID

    def test_self_invalidate_region_drops_only_valid(self, config, amap):
        l1 = self.make(config, amap)
        one, two = Region("one", 1), Region("two", 2)
        l1.set_region_lookup({100: one, 101: one, 102: two}, {})
        l1.fill_word(100, 1, DeNovoState.VALID)
        l1.fill_word(101, 2, DeNovoState.REGISTERED)
        l1.fill_word(102, 3, DeNovoState.VALID)
        dropped = l1.self_invalidate_region(1)
        assert dropped == 1
        assert l1.state_of(100) is DeNovoState.INVALID
        assert l1.state_of(101) is DeNovoState.REGISTERED  # registered survives
        assert l1.state_of(102) is DeNovoState.VALID  # other region survives

    def test_self_invalidate_all(self, config, amap):
        l1 = self.make(config, amap)
        l1.set_region_lookup({100: Region("one", 1), 200: Region("two", 2)}, {})
        l1.fill_word(100, 1, DeNovoState.VALID)
        l1.fill_word(200, 2, DeNovoState.VALID)
        l1.fill_word(300, 3, DeNovoState.VALID)  # no region
        assert l1.self_invalidate_all() == 3

    def test_self_invalidate_after_downgrade_tracks_region(self, config, amap):
        l1 = self.make(config, amap)
        l1.set_region_lookup({100: Region("one", 1)}, {})
        l1.fill_word(100, 1, DeNovoState.REGISTERED)
        l1.downgrade(100, DeNovoState.VALID)
        assert l1.self_invalidate_region(1) == 1

    def test_eviction_writes_back_registered_words(self, config, amap):
        evictions = []
        l1 = self.make(config, amap, evictions)
        num_sets = config.l1_sets
        lines = [i * num_sets for i in range(config.l1_assoc + 1)]
        for i, line in enumerate(lines):
            l1.fill_word(amap.line_base(line), i, DeNovoState.REGISTERED)
        assert evictions == [(amap.line_base(lines[0]), 0)]

    def test_eviction_of_valid_words_is_silent(self, config, amap):
        evictions = []
        l1 = self.make(config, amap, evictions)
        num_sets = config.l1_sets
        lines = [i * num_sets for i in range(config.l1_assoc + 1)]
        for i, line in enumerate(lines):
            l1.fill_word(amap.line_base(line), i, DeNovoState.VALID)
        assert evictions == []

    def test_invalidate_word(self, config, amap):
        l1 = self.make(config, amap)
        l1.fill_word(100, 1, DeNovoState.REGISTERED)
        l1.invalidate_word(100)
        assert l1.state_of(100) is DeNovoState.INVALID

"""Unit tests for the MESI directory protocol."""

import pytest

from repro.config import config_16
from repro.mem.l1 import MesiState
from repro.noc.messages import MessageClass
from repro.protocols.mesi import MesiProtocol


@pytest.fixture
def proto():
    return MesiProtocol(config_16())


ADDR = 100  # line 6, not at the requester's tile for most cores


class TestLoads:
    def test_cold_load_pays_memory_latency(self, proto):
        _, latency, hit, _ = proto.load(0, ADDR)
        assert not hit
        assert latency >= proto.config.memory_latency.min
        assert proto.counters.get("cold_misses") == 1

    def test_warm_load_from_llc(self, proto):
        proto.load(0, ADDR)
        proto.l1s[0].invalidate(proto.amap.line_of(ADDR))
        _, latency, hit, _ = proto.load(0, ADDR)
        assert not hit
        assert latency <= proto.config.l2_hit_latency.max

    def test_second_load_hits(self, proto):
        proto.load(0, ADDR)
        _, latency, hit, _ = proto.load(0, ADDR)
        assert hit
        assert latency == 1

    def test_first_reader_gets_exclusive(self, proto):
        proto.load(0, ADDR)
        line = proto.amap.line_of(ADDR)
        assert proto.l1s[0].state_of(line) is MesiState.EXCLUSIVE

    def test_second_reader_shares_and_downgrades_owner(self, proto):
        proto.load(0, ADDR)
        proto.now = 1000
        proto.load(1, ADDR)
        line = proto.amap.line_of(ADDR)
        assert proto.l1s[0].state_of(line) is MesiState.SHARED
        assert proto.l1s[1].state_of(line) is MesiState.SHARED

    def test_load_forwarded_by_modified_owner_writes_back(self, proto):
        proto.store(0, ADDR, 7, sync=True)
        before = proto.traffic.flit_crossings(MessageClass.WRITEBACK)
        proto.now = 1000
        value, _, _, _ = proto.load(1, ADDR)
        assert value == 7
        assert proto.traffic.flit_crossings(MessageClass.WRITEBACK) > before

    def test_loads_see_latest_value(self, proto):
        proto.store(0, ADDR, 41, sync=True)
        proto.now = 1000
        assert proto.load(1, ADDR)[0] == 41


class TestStores:
    def test_data_store_is_non_blocking(self, proto):
        _, latency, _, _ = proto.store(0, ADDR, 5)
        assert latency == 1
        assert proto.memory.read(ADDR) == 5

    def test_sync_store_blocks_for_miss_latency(self, proto):
        _, latency, _, _ = proto.store(0, ADDR, 5, sync=True)
        assert latency > 1

    def test_store_hit_in_modified(self, proto):
        proto.store(0, ADDR, 5, sync=True)
        _, latency, hit, _ = proto.store(0, ADDR, 6, sync=True)
        assert hit
        assert latency == 1

    def test_silent_upgrade_from_exclusive(self, proto):
        proto.load(0, ADDR)  # E grant
        before = proto.traffic.flit_crossings()
        _, _, hit, _ = proto.store(0, ADDR, 5, sync=True)
        assert hit
        assert proto.traffic.flit_crossings() == before

    def test_store_invalidates_sharers(self, proto):
        proto.load(0, ADDR)
        proto.now = 500
        proto.load(1, ADDR)
        proto.now = 1000
        proto.load(2, ADDR)
        proto.now = 2000
        proto.store(1, ADDR, 9, sync=True)
        line = proto.amap.line_of(ADDR)
        assert proto.l1s[0].state_of(line) is None
        assert proto.l1s[2].state_of(line) is None
        assert proto.l1s[1].state_of(line) is MesiState.MODIFIED
        assert proto.counters.get("invalidations_sent") >= 2

    def test_invalidation_traffic_counted(self, proto):
        proto.load(0, ADDR)
        proto.now = 500
        proto.load(1, ADDR)
        proto.now = 1000
        assert proto.traffic.flit_crossings(MessageClass.INVALIDATION) == 0
        proto.store(0, ADDR, 9, sync=True)
        assert proto.traffic.flit_crossings(MessageClass.INVALIDATION) > 0

    def test_upgrade_latency_covers_invalidation(self, proto):
        proto.load(0, ADDR)
        proto.now = 500
        proto.load(1, ADDR)
        proto.now = 1000
        bank = proto.amap.home_bank_of_addr(ADDR)
        _, latency, _, _ = proto.store(0, ADDR, 9, sync=True)
        inv_rtt = proto.mesh.invalidation_round_trip(bank, 1)
        assert latency >= inv_rtt


class TestRmw:
    def test_rmw_returns_old_applies_new(self, proto):
        proto.store(0, ADDR, 10)
        proto.now = 100
        old, _, _, _ = proto.rmw(0, ADDR, lambda old: old + 1)
        assert old == 10
        assert proto.memory.read(ADDR) == 11

    def test_failed_cas_leaves_memory(self, proto):
        proto.store(0, ADDR, 10)
        proto.now = 100
        old, _, _, _ = proto.rmw(0, ADDR, lambda old: None)
        assert old == 10
        assert proto.memory.read(ADDR) == 10

    def test_rmw_takes_ownership(self, proto):
        proto.rmw(0, ADDR, lambda old: 1)
        line = proto.amap.line_of(ADDR)
        assert proto.l1s[0].state_of(line) is MesiState.MODIFIED


class TestBlockingDirectory:
    def test_busy_entry_returns_retry(self, proto):
        proto.load(0, ADDR)  # cold fetch leaves the entry busy briefly
        _, latency, _, retry = proto.load(1, ADDR)
        assert retry
        assert latency > 0
        assert proto.counters.get("directory_retries") == 1

    def test_reserved_reissue_serviced_despite_busy(self, proto):
        proto.store(0, ADDR, 7, sync=True)  # the entry is busy briefly
        _, queue, _, retry = proto.load(1, ADDR)
        assert retry
        line = proto.amap.line_of(ADDR)
        # Re-issue at the reserved time, still inside the busy window
        # (the retry extended it): the directory holds core 1's
        # reservation, so the re-issue is served.
        proto.now = queue
        assert proto._directory[line].busy_until > proto.now
        value, _, _, retry = proto.load(1, ADDR)
        assert not retry
        assert value == 7
        # A third core arriving in the same window still queues.
        assert proto.load(2, ADDR)[3]
        assert proto.counters.get("directory_retries") == 2

    def test_retry_extends_reservation(self, proto):
        proto.load(0, ADDR)
        line = proto.amap.line_of(ADDR)
        before = proto._directory[line].busy_until
        proto.load(1, ADDR)
        assert proto._directory[line].busy_until > before

    def test_hits_never_retry(self, proto):
        proto.load(0, ADDR)
        _, _, _, retry = proto.load(0, ADDR)  # own hit, directory not consulted
        assert not retry


class TestSubscriptions:
    def test_subscribe_requires_cached_copy(self, proto):
        assert proto.subscribe_line_change(0, ADDR, lambda t: None) is False
        proto.load(0, ADDR)
        assert proto.subscribe_line_change(0, ADDR, lambda t: None) is True

    def test_waiter_woken_by_invalidation(self, proto):
        proto.load(0, ADDR)
        proto.now = 500
        proto.load(1, ADDR)
        wakes = []
        proto.subscribe_line_change(0, ADDR, wakes.append)
        proto.now = 1000
        proto.store(1, ADDR, 1, sync=True)
        assert len(wakes) == 1
        assert wakes[0] >= 1000

    def test_other_cores_waiters_not_woken(self, proto):
        proto.load(0, ADDR)
        proto.now = 500
        proto.load(1, ADDR)
        proto.now = 600
        proto.load(2, ADDR)
        wakes0, wakes2 = [], []
        proto.subscribe_line_change(0, ADDR, wakes0.append)
        proto.subscribe_line_change(2, ADDR, wakes2.append)
        proto.now = 1000
        # Core 2 upgrades: invalidates 0 but keeps its own copy.
        proto.store(2, ADDR, 1, sync=True)
        assert len(wakes0) == 1
        assert wakes2 == []


class TestSelfInvalidate:
    def test_noop_for_mesi(self, proto):
        from repro.mem.regions import Region

        latency = proto.self_invalidate(0, [Region("r", 0)])
        assert latency == 1


def tiny_l1_proto() -> MesiProtocol:
    """A 2-line, single-set L1 so back-to-back fills force replacements."""
    return MesiProtocol(config_16(l1_bytes=128, l1_assoc=2))


class TestWaiterEviction:
    """A spin-waiter whose cached copy falls to its *own* L1 replacement
    must be woken (the writer's invalidation will never reach it)."""

    def test_own_eviction_wakes_waiter(self):
        proto = tiny_l1_proto()
        words = proto.config.words_per_line
        addr_a, addr_b, addr_c = 0, words, 2 * words  # three distinct lines
        proto.load(0, addr_a)
        wakes = []
        assert proto.subscribe_line_change(0, addr_a, wakes.append) is True
        proto.now = 100
        proto.load(0, addr_b)  # fills the second way; A still resident
        assert wakes == []
        proto.now = 200
        proto.load(0, addr_c)  # evicts A (LRU) from core 0's own L1
        assert wakes == [200]
        assert proto.l1s[0].state_of(proto.amap.line_of(addr_a), touch=False) is None
        # The waiter registration must not linger after the wake.
        assert not proto._waiters.get(proto.amap.line_of(addr_a))

    def test_modified_victim_eviction_wakes_waiter(self):
        proto = tiny_l1_proto()
        words = proto.config.words_per_line
        addr_a, addr_b, addr_c = 0, words, 2 * words
        proto.store(0, addr_a, 7, sync=True)  # Modified copy
        wakes = []
        assert proto.subscribe_line_change(0, addr_a, wakes.append) is True
        proto.now = 50
        proto.load(0, addr_b)
        proto.now = 90
        proto.load(0, addr_c)  # evicts dirty A: writeback + wake
        assert wakes == [90]
        assert proto.counters.get("writebacks") >= 1

    def test_other_cores_waiters_survive_local_eviction(self):
        proto = tiny_l1_proto()
        words = proto.config.words_per_line
        addr_a, addr_b, addr_c = 0, words, 2 * words
        proto.load(0, addr_a)
        proto.now = 500
        proto.load(1, addr_a)
        wakes0, wakes1 = [], []
        proto.subscribe_line_change(0, addr_a, wakes0.append)
        proto.subscribe_line_change(1, addr_a, wakes1.append)
        proto.now = 600
        proto.load(0, addr_b)
        proto.now = 700
        proto.load(0, addr_c)  # core 0 loses A; core 1's copy is intact
        assert wakes0 == [700]
        assert wakes1 == []


class TestRemoteDowngradeLru:
    def test_remote_downgrade_does_not_refresh_victim_lru(self):
        # Core 1's load forwards from owner core 0 and downgrades its copy
        # to Shared; that remote poke must not make the line recently-used
        # in core 0's replacement order.
        proto = tiny_l1_proto()
        words = proto.config.words_per_line
        addr_a, addr_b, addr_c = 0, words, 2 * words
        proto.load(0, addr_a)  # Exclusive, oldest local touch
        proto.now = 10
        proto.load(0, addr_b)
        proto.now = 2000
        proto.load(1, addr_a)  # owner forward, A -> Shared
        proto.now = 4000
        proto.load(0, addr_c)  # replacement: A is still core 0's LRU victim
        l1 = proto.l1s[0]
        assert l1.state_of(proto.amap.line_of(addr_a), touch=False) is None
        assert l1.state_of(proto.amap.line_of(addr_b), touch=False) is not None


class TestEviction:
    def test_modified_eviction_writes_back_and_clears_owner(self, proto):
        config = proto.config
        num_sets = config.l1_sets
        words_per_line = config.words_per_line
        lines = [i * num_sets + 1 for i in range(config.l1_assoc + 1)]
        for i, line in enumerate(lines):
            proto.now = i * 1000
            proto.store(0, line * words_per_line, i, sync=True)
        victim_line = lines[0]
        assert proto.l1s[0].state_of(victim_line, touch=False) is None
        assert proto._directory[victim_line].exclusive_owner is None
        assert proto.counters.get("writebacks") >= 1

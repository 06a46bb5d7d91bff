"""Unit tests for the DeNovoSync0 / DeNovoSync protocols, and for the
self-invalidating L1 side they share with SynCron and Neat."""

import pytest

from repro.config import config_16
from repro.mem.address import AddressMap
from repro.mem.l1 import DeNovoState
from repro.mem.regions import RegionAllocator
from repro.noc.messages import MessageClass, data_flits
from repro.protocols import make_protocol
from repro.protocols.denovosync import DeNovoSyncProtocol
from repro.protocols.denovosync0 import DeNovoSync0Protocol
from repro.protocols.registry import get_info, protocols_with


@pytest.fixture
def allocator():
    return RegionAllocator(AddressMap(config_16()))


@pytest.fixture
def proto(allocator):
    return DeNovoSync0Protocol(config_16(), allocator)


@pytest.fixture
def proto_ds(allocator):
    return DeNovoSyncProtocol(config_16(), allocator)


ADDR = 100


class TestDataLoads:
    def test_miss_fills_line_valid_words(self, proto):
        proto.load(0, ADDR)
        line = proto.amap.line_of(ADDR)
        for word in proto.amap.words_of_line(line):
            assert proto.l1s[0].state_of(word) is DeNovoState.VALID

    def test_hit_after_fill(self, proto):
        proto.load(0, ADDR)
        _, latency, hit, _ = proto.load(0, ADDR)
        assert hit and latency == 1

    def test_remote_owner_serves_data_and_stays_registered(self, proto):
        proto.store(0, ADDR, 5)  # core 0 registers the word
        proto.now = 1000
        value, _, _, _ = proto.load(1, ADDR)
        assert value == 5
        assert proto.registry[ADDR] == 0  # reads do not revoke
        assert proto.l1s[1].state_of(ADDR) is DeNovoState.VALID

    def test_remote_fetch_fills_owners_registered_words(self, proto):
        # Core 0 writes two words of the line; core 1's read of one should
        # bring both (the owner responds with its registered words).
        proto.store(0, ADDR, 5)
        proto.store(0, ADDR + 1, 6)
        proto.now = 1000
        proto.load(1, ADDR)
        assert proto.l1s[1].state_of(ADDR + 1) is DeNovoState.VALID

    def test_valid_hit_may_be_stale_until_self_invalidated(self, proto, allocator):
        # Allocate words up to and including ADDR in region "shared".
        allocator.alloc("shared", ADDR + 1 - allocator.words_allocated)
        region = allocator.region("shared")
        assert allocator.region_of(ADDR) is region
        proto.load(1, ADDR)  # fills Valid copy of value 0
        proto.now = 500
        proto.store(0, ADDR, 9)  # core 0 writes through registration
        proto.now = 1000
        assert proto.load(1, ADDR)[0] == 0  # stale Valid hit (legal: DRF)
        proto.self_invalidate(1, [region])
        assert proto.load(1, ADDR)[0] == 9  # fresh after self-invalidate


class TestDataStores:
    def test_store_is_non_blocking_and_registers(self, proto):
        _, latency, _, _ = proto.store(0, ADDR, 5)
        assert latency == 1
        assert proto.registry[ADDR] == 0
        assert proto.l1s[0].state_of(ADDR) is DeNovoState.REGISTERED
        assert proto.memory.read(ADDR) == 5

    def test_store_steals_registration_and_invalidates_prev(self, proto):
        proto.store(0, ADDR, 5)
        proto.now = 1000
        proto.store(1, ADDR, 6)
        assert proto.registry[ADDR] == 1
        assert proto.l1s[0].state_of(ADDR) is DeNovoState.INVALID

    def test_registered_store_hits_silently(self, proto):
        proto.store(0, ADDR, 5)
        before = proto.traffic.flit_crossings()
        _, _, hit, _ = proto.store(0, ADDR, 6)
        assert hit
        assert proto.traffic.flit_crossings() == before

    def test_store_aggregation_combines_line_burst(self, proto):
        proto.store(0, ADDR, 1)
        first = proto.traffic.flit_crossings(MessageClass.STORE)
        proto.now = 10
        proto.store(0, ADDR + 1, 2)  # same line, within the window
        assert proto.traffic.flit_crossings(MessageClass.STORE) == first
        assert proto.registry[ADDR + 1] == 0
        assert proto.counters.get("aggregated_store_registrations") == 1

    def test_store_aggregation_expires(self, proto):
        proto.store(0, ADDR, 1)
        first = proto.traffic.flit_crossings(MessageClass.STORE)
        proto.now = proto.config.tuning.store_aggregation_window + 10
        proto.store(0, ADDR + 1, 2)
        assert proto.traffic.flit_crossings(MessageClass.STORE) > first

    def test_store_aggregation_never_skips_steals(self, proto):
        proto.store(1, ADDR + 1, 9)  # word owned by another core
        proto.now = 5
        proto.store(0, ADDR, 1)
        proto.now = 10
        proto.store(0, ADDR + 1, 2)  # must take the full transfer path
        assert proto.l1s[1].state_of(ADDR + 1) is DeNovoState.INVALID
        assert proto.registry[ADDR + 1] == 0


class TestSyncLoads:
    def test_sync_read_registers(self, proto):
        _, _, hit, _ = proto.load(0, ADDR, sync=True)
        assert not hit
        assert proto.registry[ADDR] == 0
        assert proto.l1s[0].state_of(ADDR) is DeNovoState.REGISTERED
        assert proto.counters.get("sync_read_misses") == 1

    def test_sync_read_hit_only_when_registered(self, proto):
        proto.load(0, ADDR, sync=True)
        _, _, hit, _ = proto.load(0, ADDR, sync=True)
        assert hit
        assert proto.counters.get("sync_read_hits") == 1

    def test_sync_read_steals_and_downgrades_to_valid(self, proto):
        proto.load(0, ADDR, sync=True)
        proto.now = 1000
        proto.load(1, ADDR, sync=True)
        assert proto.registry[ADDR] == 1
        assert proto.l1s[0].state_of(ADDR) is DeNovoState.VALID
        assert proto.counters.get("read_registration_steals") == 1

    def test_sync_read_to_valid_misses_again(self, proto):
        proto.load(0, ADDR, sync=True)
        proto.now = 1000
        proto.load(1, ADDR, sync=True)  # steal: core 0 now Valid
        proto.now = 2000
        _, _, hit, _ = proto.load(0, ADDR, sync=True)  # Valid is not usable
        assert not hit

    def test_sync_read_sees_latest_write(self, proto):
        proto.store(0, ADDR, 7, sync=True)
        proto.now = 1000
        assert proto.load(1, ADDR, sync=True)[0] == 7

    def test_sync_traffic_classified_synch(self, proto):
        proto.load(0, ADDR, sync=True)
        assert proto.traffic.flit_crossings(MessageClass.SYNCH) > 0
        assert proto.traffic.flit_crossings(MessageClass.LOAD) == 0


class TestSyncStoresAndRmw:
    def test_sync_store_invalidates_prev(self, proto):
        proto.load(0, ADDR, sync=True)
        proto.now = 1000
        proto.store(1, ADDR, 3, sync=True)
        assert proto.l1s[0].state_of(ADDR) is DeNovoState.INVALID
        assert proto.registry[ADDR] == 1

    def test_rmw_returns_old_and_writes(self, proto):
        proto.store(0, ADDR, 10, sync=True)
        proto.now = 100
        old, _, _, _ = proto.rmw(0, ADDR, lambda old: old + 5)
        assert old == 10
        assert proto.memory.read(ADDR) == 15

    def test_failed_cas_keeps_registration(self, proto):
        proto.now = 100
        old, _, _, _ = proto.rmw(0, ADDR, lambda old: None)
        assert old == 0
        assert proto.registry[ADDR] == 0
        assert proto.l1s[0].state_of(ADDR) is DeNovoState.REGISTERED

    def test_rmw_hit_when_registered(self, proto):
        proto.rmw(0, ADDR, lambda old: 1)
        proto.now = 10
        _, latency, hit, _ = proto.rmw(0, ADDR, lambda old: 2)
        assert hit and latency == 1


class TestRegistrationChain:
    def test_concurrent_registrations_serialize(self, proto):
        proto.load(0, ADDR, sync=True)
        proto.now = 1000
        _, first, _, _ = proto.load(1, ADDR, sync=True)
        _, second, _, _ = proto.load(2, ADDR, sync=True)  # same cycle: chains behind
        assert second > first
        assert proto.counters.get("registration_chain_waits") == 1

    def test_chain_drains_over_time(self, proto):
        proto.load(0, ADDR, sync=True)
        proto.now = 1000
        proto.load(1, ADDR, sync=True)
        proto.now = 100000
        _, latency, _, _ = proto.load(2, ADDR, sync=True)
        assert latency <= proto.config.remote_l1_latency.max


class TestSubscriptions:
    def test_subscribe_only_registered(self, proto):
        proto.load(0, ADDR)  # Valid, not Registered
        assert proto.subscribe_line_change(0, ADDR, lambda t: None) is False
        proto.load(0, ADDR, sync=True)
        assert proto.subscribe_line_change(0, ADDR, lambda t: None) is True

    def test_waiter_woken_by_steal(self, proto):
        proto.load(0, ADDR, sync=True)
        wakes = []
        proto.subscribe_line_change(0, ADDR, wakes.append)
        proto.now = 1000
        proto.load(1, ADDR, sync=True)
        assert len(wakes) == 1 and wakes[0] >= 1000

    def test_waiter_woken_by_write_steal(self, proto):
        proto.load(0, ADDR, sync=True)
        wakes = []
        proto.subscribe_line_change(0, ADDR, wakes.append)
        proto.now = 1000
        proto.store(1, ADDR, 1, sync=True)
        assert len(wakes) == 1


class TestEviction:
    def test_registered_eviction_returns_to_llc(self, proto):
        config = proto.config
        num_sets = config.l1_sets
        wpl = config.words_per_line
        lines = [i * num_sets + 1 for i in range(config.l1_assoc + 1)]
        for i, line in enumerate(lines):
            proto.now = i * 1000
            proto.store(0, line * wpl, i)
        victim_addr = lines[0] * wpl
        assert victim_addr not in proto.registry
        assert proto.counters.get("writebacks") >= 1
        # The value survives at the LLC.
        proto.now = 10**6
        assert proto.load(1, victim_addr)[0] == 0


class TestDeNovoSyncBackoff:
    def test_no_backoff_for_invalid_word(self, proto_ds):
        assert proto_ds.sync_read_backoff(0, ADDR) == 0

    def test_backoff_armed_by_incoming_steal(self, proto_ds):
        proto_ds.load(0, ADDR, sync=True)
        proto_ds.now = 1000
        proto_ds.load(1, ADDR, sync=True)  # steals from core 0
        proto_ds.now = 2000
        stall = proto_ds.sync_read_backoff(0, ADDR)
        assert stall == proto_ds.config.backoff.default_increment
        assert proto_ds.counters.get("hw_backoff_events") == 1

    def test_write_steal_does_not_arm_backoff(self, proto_ds):
        proto_ds.load(0, ADDR, sync=True)
        proto_ds.now = 1000
        proto_ds.store(1, ADDR, 1, sync=True)  # write steal -> Invalid
        proto_ds.now = 2000
        assert proto_ds.sync_read_backoff(0, ADDR) == 0

    def test_registered_hit_resets_backoff(self, proto_ds):
        proto_ds.load(0, ADDR, sync=True)
        proto_ds.now = 1000
        proto_ds.load(1, ADDR, sync=True)
        proto_ds.now = 2000
        proto_ds.load(0, ADDR, sync=True)  # re-register
        proto_ds.load(0, ADDR, sync=True)  # hit: resets counter
        assert proto_ds.backoff_states[0].backoff == 0

    def test_ds0_never_backs_off(self, proto):
        proto.load(0, ADDR, sync=True)
        proto.now = 1000
        proto.load(1, ADDR, sync=True)
        proto.now = 2000
        assert proto.sync_read_backoff(0, ADDR) == 0


@pytest.mark.parametrize("name", protocols_with(invalidation="self"))
class TestSelfInvalidatingEviction:
    """The eviction handler every self-invalidating backend shares: a
    force-evicted Registered (Neat: dirty) word is written back as one
    word, and the backend's owner bookkeeping forgets it."""

    def test_registered_word_writes_back_one_word(self, name):
        proto = make_protocol(name, config_16())
        core, addr = 0, 5 * proto.amap.words_per_line
        line = proto.amap.line_of(addr)
        bank = proto.amap.home_bank(line)
        dirty_set = get_info(name).tracking == "dirty-set"

        def owned() -> bool:
            if dirty_set:
                return addr in proto._dirty[core]
            return proto.registry.get(addr) == core

        proto.now = 1_000
        proto.store(core, addr, 7)  # a data store: Registered / dirty
        assert owned()
        ledger = proto.traffic
        before = (
            ledger.message_count(MessageClass.WRITEBACK),
            ledger.flit_crossings(MessageClass.WRITEBACK),
            proto.counters.get("writebacks"),
        )

        assert proto.force_evict(core, line)

        word_flits = data_flits(proto.config.word_bytes) * proto.mesh.hops(core, bank)
        assert (
            ledger.message_count(MessageClass.WRITEBACK),
            ledger.flit_crossings(MessageClass.WRITEBACK),
            proto.counters.get("writebacks"),
        ) == (before[0] + 1, before[1] + word_flits, before[2] + 1)
        assert not owned()
        assert proto.memory.read(addr) == 7
        assert proto.invariant_violations() == []

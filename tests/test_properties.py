"""Property-based tests (hypothesis) on the core data structures and
protocol invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BackoffConfig, LatencyRange, config_16, config_for_cores
from repro.mem.address import AddressMap
from repro.mem.l1 import DeNovoState
from repro.mem.regions import Region, RegionAllocator
from repro.noc.mesh import Mesh
from repro.noc.messages import MessageClass, control_flits, data_flits
from repro.protocols import make_protocol
from repro.protocols.backoff import BackoffState
from repro.sim.engine import Simulator


class TestLatencyRangeProperties:
    @given(
        lo=st.integers(1, 200),
        span=st.integers(0, 300),
        hops=st.integers(0, 50),
        max_hops=st.integers(1, 50),
    )
    def test_interpolation_within_bounds_and_monotonic(self, lo, span, hops, max_hops):
        rng = LatencyRange(lo, lo + span)
        value = rng.interpolate(hops, max_hops)
        assert lo <= value <= lo + span
        if hops + 1 <= max_hops:
            assert rng.interpolate(hops + 1, max_hops) >= value


class TestMeshProperties:
    @given(
        cores=st.sampled_from([4, 16, 64]),
        a=st.integers(0, 63),
        b=st.integers(0, 63),
        c=st.integers(0, 63),
    )
    def test_hops_is_a_metric(self, cores, a, b, c):
        mesh = Mesh(config_for_cores(cores))
        a, b, c = a % cores, b % cores, c % cores
        assert mesh.hops(a, a) == 0
        assert mesh.hops(a, b) == mesh.hops(b, a)
        assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)

    @given(cores=st.sampled_from([4, 16, 64]), a=st.integers(0, 63), b=st.integers(0, 63))
    def test_latencies_within_table1_ranges(self, cores, a, b):
        config = config_for_cores(cores)
        mesh = Mesh(config)
        a, b = a % cores, b % cores
        assert (
            config.l2_hit_latency.min
            <= mesh.l2_access_latency(a, b)
            <= config.l2_hit_latency.max
        )
        assert (
            config.memory_latency.min
            <= mesh.memory_latency(a, b)
            <= config.memory_latency.max
        )


class TestMessageProperties:
    @given(payload=st.integers(0, 4096))
    def test_data_message_never_smaller_than_control(self, payload):
        assert data_flits(payload) >= control_flits()

    @given(p1=st.integers(0, 2048), p2=st.integers(0, 2048))
    def test_flit_count_monotonic_in_payload(self, p1, p2):
        if p1 <= p2:
            assert data_flits(p1) <= data_flits(p2)


class TestTrafficLedgerProperties:
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(list(MessageClass)),
                st.integers(0, 15),
                st.integers(0, 15),
                st.integers(0, 200),
            ),
            max_size=50,
        )
    )
    def test_total_equals_sum_of_classes(self, records):
        protocol = make_protocol("MESI", config_16())
        for klass, src, dst, payload in records:
            protocol.record_data(klass, src, dst, payload)
        ledger = protocol.traffic
        assert ledger.flit_crossings() == sum(
            ledger.flit_crossings(k) for k in MessageClass
        )
        assert ledger.flit_crossings() == sum(
            data_flits(p) * protocol.mesh.hops(s, d) for _, s, d, p in records
        )
        assert ledger.message_count() == len(records)


class TestAddressMapProperties:
    @given(addr=st.integers(0, 10**9))
    def test_line_word_roundtrip(self, addr):
        amap = AddressMap(config_16())
        line = amap.line_of(addr)
        offset = amap.word_in_line(addr)
        assert amap.line_base(line) + offset == addr
        assert 0 <= offset < amap.words_per_line
        assert addr in amap.words_of_line(line)

    @given(addr=st.integers(0, 10**6))
    def test_home_bank_in_range(self, addr):
        amap = AddressMap(config_16())
        assert 0 <= amap.home_bank_of_addr(addr) < 16


class TestRegionAllocatorProperties:
    @given(
        sizes=st.lists(st.tuples(st.integers(1, 40), st.booleans()), max_size=25)
    )
    def test_allocations_disjoint_and_tracked(self, sizes):
        allocator = RegionAllocator(AddressMap(config_16()))
        seen = set()
        for i, (nwords, align) in enumerate(sizes):
            alloc = allocator.alloc(f"r{i % 5}", nwords, line_align=align)
            assert alloc.nwords == nwords
            if align:
                assert alloc.base % 16 == 0
            for addr in alloc:
                assert addr not in seen
                seen.add(addr)
                assert allocator.region_of(addr) is allocator.region(f"r{i % 5}")

    @given(
        pad_sync=st.booleans(),
        steps=st.lists(
            st.tuples(st.sampled_from(["alloc", "alloc_sync"]), st.integers(1, 40),
                      st.booleans()),
            max_size=25,
        ),
    )
    def test_line_and_word_maps_match_a_per_word_reference(self, pad_sync, steps):
        """Regions recorded per covered line plus per split word answer
        ``region_of`` as a dict filled with every allocated word would."""
        amap = AddressMap(config_16())
        wpl = amap.words_per_line
        allocator = RegionAllocator(amap, pad_sync_vars=pad_sync)
        reference: dict[int, Region] = {}
        for i, (kind, nwords, align) in enumerate(steps):
            if kind == "alloc":
                alloc = allocator.alloc(f"r{i % 5}", nwords, line_align=align)
            else:
                alloc = allocator.alloc_sync(f"r{i % 5}", nwords)
            for addr in alloc:
                reference[addr] = alloc.region
            for addr in range(allocator.words_allocated + 2 * wpl):
                assert allocator.region_of(addr) is reference.get(addr), addr
            # One entry per line the allocation covers, none per word there.
            for line in range(-(-alloc.base // wpl), alloc.end // wpl):
                assert allocator._line_regions[line] is alloc.region
            split_lines = {addr // wpl for addr in allocator._word_regions}
            assert not split_lines & allocator._line_regions.keys()


class TestBackoffProperties:
    @given(
        bits=st.integers(2, 12),
        inc=st.integers(1, 64),
        period=st.integers(1, 64),
        events=st.lists(st.sampled_from(["steal", "hit", "release", "stall"]), max_size=200),
    )
    def test_counter_stays_in_hardware_range(self, bits, inc, period, events):
        state = BackoffState(BackoffConfig(bits, inc, period))
        for event in events:
            if event == "steal":
                state.on_incoming_sync_read_steal()
            elif event == "hit":
                state.on_registered_hit()
            elif event == "release":
                state.on_release()
            else:
                assert state.stall_cycles(spinning=True) >= 0
            assert 0 <= state.backoff <= state.config.counter_max


class TestSimulatorProperties:
    @given(times=st.lists(st.integers(0, 10_000), max_size=60))
    def test_events_fire_in_nondecreasing_time_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.call_at(t, fired.append, t)
        sim.run()
        assert fired == sorted(times)
        assert len(fired) == len(times)


class TestProtocolValueProperties:
    @given(
        protocol_name=st.sampled_from(["MESI", "DeNovoSync0", "DeNovoSync"]),
        ops=st.lists(
            st.tuples(
                st.integers(0, 3),  # core
                st.integers(0, 5),  # word index within a small pool
                st.sampled_from(["load", "store", "sync_load", "sync_store", "fai"]),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_sync_accesses_always_see_latest_value(self, protocol_name, ops):
        """SC for synchronization: a sync read returns the latest write."""
        from repro.protocols import make_protocol

        config = config_for_cores(4)
        allocator = RegionAllocator(AddressMap(config))
        pool = [allocator.alloc_sync(f"w{i}").base for i in range(6)]
        protocol = make_protocol(protocol_name, config, allocator)
        shadow = {}
        now = 0
        for core, word, op in ops:
            now += 1000  # space operations out: no in-flight overlap
            protocol.now = now
            addr = pool[word]
            if op == "load":
                protocol.load(core, addr)
            elif op == "sync_load":
                value, _, _, _ = protocol.load(core, addr, sync=True)
                assert value == shadow.get(addr, 0)
            elif op == "store":
                protocol.store(core, addr, core * 7 + word)
                shadow[addr] = core * 7 + word
            elif op == "sync_store":
                protocol.store(core, addr, core * 9 + word, sync=True)
                shadow[addr] = core * 9 + word
            else:
                old, _, _, _ = protocol.rmw(core, addr, lambda old: old + 1)
                assert old == shadow.get(addr, 0)
                shadow[addr] = shadow.get(addr, 0) + 1

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_denovo_registry_consistent_with_l1_states(self, seed):
        """Single-writer invariant: a word's registry owner (if any) holds
        it Registered, and nobody else does."""
        from repro.protocols.denovosync0 import DeNovoSync0Protocol

        config = config_for_cores(4)
        allocator = RegionAllocator(AddressMap(config))
        pool = [allocator.alloc(f"d{i}", 4).base for i in range(4)]
        protocol = DeNovoSync0Protocol(config, allocator)
        rng = random.Random(seed)
        now = 0
        for _ in range(80):
            now += 500
            protocol.now = now
            core = rng.randrange(4)
            addr = pool[rng.randrange(4)] + rng.randrange(4)
            op = rng.choice(["load", "store", "sync_load", "rmw"])
            if op == "load":
                protocol.load(core, addr)
            elif op == "store":
                protocol.store(core, addr, rng.randrange(100))
            elif op == "sync_load":
                protocol.load(core, addr, sync=True)
            else:
                protocol.rmw(core, addr, lambda old: old + 1)
        for addr, owner in protocol.registry.items():
            for core_id, l1 in enumerate(protocol.l1s):
                state = l1.state_of(addr, touch=False)
                if core_id == owner:
                    assert state is DeNovoState.REGISTERED
                    assert l1.value_of(addr) == protocol.memory.read(addr)
                else:
                    assert state is not DeNovoState.REGISTERED

"""Tests for the simulated core: dispatch, accounting, spin-waits."""

import pytest

from repro.config import config_16
from repro.cpu.core import Core
from repro.cpu.isa import (
    Cas,
    Compute,
    Fai,
    Load,
    PopBucket,
    PushBucket,
    SelfInvalidate,
    Store,
    Swap,
    WaitLoad,
)
from repro.protocols.denovosync import DeNovoSyncProtocol
from repro.protocols.denovosync0 import DeNovoSync0Protocol
from repro.protocols.mesi import MesiProtocol
from repro.protocols.registry import iter_protocols
from repro.sim.engine import Simulator
from repro.stats.timeparts import TimeComponent

ADDR = 100


def run_program(protocol_cls, *programs, config=None):
    """Run thread programs on one core each; return (cores, sim)."""
    config = config or config_16()
    protocol = protocol_cls(config)
    sim = Simulator()
    cores = [Core(i, sim, protocol) for i in range(len(programs))]
    for core, program in zip(cores, programs):
        core.start(program)
    sim.run(max_events=10**6)
    return cores, sim, protocol


class TestBasicDispatch:
    @pytest.mark.parametrize(
        "protocol_cls", [MesiProtocol, DeNovoSync0Protocol, DeNovoSyncProtocol]
    )
    def test_load_returns_stored_value(self, protocol_cls):
        seen = {}

        def program():
            yield Store(ADDR, 42, sync=True)
            seen["value"] = yield Load(ADDR, sync=True)

        cores, _, _ = run_program(protocol_cls, program())
        assert seen["value"] == 42
        assert cores[0].done

    def test_compute_advances_clock(self):
        def program():
            yield Compute(100)

        cores, sim, _ = run_program(MesiProtocol, program())
        assert cores[0].finish_time == 100
        assert cores[0].time.get(TimeComponent.COMPUTE) == 100

    def test_compute_with_component_tag(self):
        def program():
            yield Compute(50, TimeComponent.NON_SYNCH)

        cores, _, _ = run_program(MesiProtocol, program())
        assert cores[0].time.get(TimeComponent.NON_SYNCH) == 50
        assert cores[0].time.get(TimeComponent.COMPUTE) == 0

    def test_miss_accounted_compute_plus_stall(self):
        def program():
            yield Load(ADDR)

        cores, _, _ = run_program(MesiProtocol, program())
        time = cores[0].time
        assert time.get(TimeComponent.COMPUTE) == 1
        assert time.get(TimeComponent.MEMORY_STALL) == cores[0].finish_time - 1

    def test_cas_success_and_failure(self):
        results = []

        def program():
            yield Store(ADDR, 5, sync=True)
            results.append((yield Cas(ADDR, 5, 6)))  # succeeds, returns 5
            results.append((yield Cas(ADDR, 5, 7)))  # fails, returns 6

        _, _, protocol = run_program(MesiProtocol, program())
        assert results == [5, 6]
        assert protocol.memory.read(ADDR) == 6

    def test_fai_and_swap(self):
        results = []

        def program():
            results.append((yield Fai(ADDR)))
            results.append((yield Fai(ADDR, delta=10)))
            results.append((yield Swap(ADDR, 99)))

        _, _, protocol = run_program(MesiProtocol, program())
        assert results == [0, 1, 11]
        assert protocol.memory.read(ADDR) == 99

    def test_unknown_op_raises(self):
        def program():
            yield object()

        with pytest.raises(TypeError):
            run_program(MesiProtocol, program())


class TestBuckets:
    def test_bucket_override_routes_cycles(self):
        def program():
            yield PushBucket(TimeComponent.BARRIER_STALL)
            yield Compute(30)
            yield Load(ADDR)
            yield PopBucket()
            yield Compute(5)

        cores, _, _ = run_program(MesiProtocol, program())
        time = cores[0].time
        assert time.get(TimeComponent.BARRIER_STALL) > 30
        assert time.get(TimeComponent.COMPUTE) == 5
        assert time.get(TimeComponent.MEMORY_STALL) == 0

    def test_pop_without_push_raises(self):
        def program():
            yield PopBucket()

        with pytest.raises(RuntimeError):
            run_program(MesiProtocol, program())


class TestWaitLoad:
    @pytest.mark.parametrize(
        "protocol_cls", [MesiProtocol, DeNovoSync0Protocol, DeNovoSyncProtocol]
    )
    def test_waiter_wakes_on_write(self, protocol_cls):
        order = []

        def waiter():
            value = yield WaitLoad(ADDR, lambda v: v == 7, sync=True)
            order.append(("woke", value))

        def writer():
            yield Compute(5000)
            order.append(("writing", 7))
            yield Store(ADDR, 7, sync=True, release=True)

        cores, _, _ = run_program(protocol_cls, waiter(), writer())
        assert all(core.done for core in cores)
        assert order[0] == ("writing", 7)
        assert order[1] == ("woke", 7)

    def test_immediately_satisfied_wait(self):
        seen = {}

        def program():
            yield Store(ADDR, 3, sync=True)
            seen["v"] = yield WaitLoad(ADDR, lambda v: v == 3, sync=True)

        cores, _, _ = run_program(MesiProtocol, program())
        assert seen["v"] == 3

    def test_mesi_waiter_spins_without_traffic(self):
        def waiter():
            yield WaitLoad(ADDR, lambda v: v == 1, sync=True)

        def writer():
            yield Compute(20000)
            yield Store(ADDR, 1, sync=True)

        cores, _, protocol = run_program(MesiProtocol, waiter(), writer())
        # The waiter's wait shows up as compute (local spinning), and the
        # whole wait produced only a couple of misses.
        assert cores[0].time.get(TimeComponent.COMPUTE) > 10000
        assert protocol.counters.get("l1_misses") < 10

    def test_denovo_waiter_sleeps_on_registration(self):
        def waiter():
            yield WaitLoad(ADDR, lambda v: v == 1, sync=True)

        def writer():
            yield Compute(20000)
            yield Store(ADDR, 1, sync=True)

        cores, _, protocol = run_program(DeNovoSync0Protocol, waiter(), writer())
        assert all(core.done for core in cores)
        # One registering miss, then a local hit-spin until the write steal.
        assert protocol.counters.get("sync_read_misses") <= 3

    def test_multiple_waiters_all_wake(self):
        woke = []

        def waiter(tag):
            yield WaitLoad(ADDR, lambda v: v >= 1, sync=True)
            woke.append(tag)

        def writer():
            yield Compute(30000)
            yield Store(ADDR, 1, sync=True, release=True)

        programs = [waiter(i) for i in range(6)] + [writer()]
        cores, _, _ = run_program(DeNovoSyncProtocol, *programs)
        assert sorted(woke) == list(range(6))
        assert all(core.done for core in cores)


def recording_acquires(protocol_cls):
    """``protocol_cls`` with ``on_acquire`` calls logged as (core, addr,
    cycle) in the class attribute ``acquires``."""

    def on_acquire(self, core_id, addr):
        self.acquires.append((core_id, addr, self.now))
        protocol_cls.on_acquire(self, core_id, addr)

    return type(
        f"Recording{protocol_cls.__name__}", (protocol_cls,),
        {"on_acquire": on_acquire, "acquires": []},
    )


class TestAcquirePath:
    """``on_acquire`` is the one way an acquire reaches a protocol: the
    core calls it once per completed acquire-marked access, never for a
    retried one or an op without ``acquire``."""

    @pytest.mark.parametrize(
        "protocol_cls", [info.cls for info in iter_protocols()],
        ids=lambda cls: cls.__name__,
    )
    def test_one_call_per_completed_acquire(self, protocol_cls):
        lock, flag = ADDR, ADDR + 32

        def program():
            yield Load(lock, sync=True, acquire=True)
            yield Cas(lock, 0, 1, acquire=True)
            yield Fai(flag, acquire=True)
            yield Swap(lock, 0, acquire=True)
            yield WaitLoad(flag, lambda v: v == 1, acquire=True)
            yield Load(lock, sync=True)
            yield Cas(lock, 0, 1)
            yield Store(lock, 0, sync=True, release=True)

        recording = recording_acquires(protocol_cls)
        run_program(recording, program())
        assert [(core, addr) for core, addr, _ in recording.acquires] == [
            (0, lock), (0, lock), (0, flag), (0, lock), (0, flag),
        ]

    @pytest.mark.parametrize(
        "acquire_op", [Load(ADDR, sync=True, acquire=True), Swap(ADDR, 2, acquire=True)],
        ids=["load", "rmw"],
    )
    def test_retried_acquire_is_acquired_once_when_served(self, acquire_op):
        def owner():
            yield Store(ADDR, 1, sync=True)  # leaves the directory busy

        def acquirer():
            yield acquire_op

        recording = recording_acquires(MesiProtocol)
        cores, _, protocol = run_program(recording, owner(), acquirer())
        assert protocol.counters.get("directory_retries") == 1
        # One acquire, at the re-issue that was served, not at the retry.
        [(core, addr, cycle)] = recording.acquires
        assert (core, addr) == (1, ADDR)
        assert 0 < cycle < cores[1].finish_time


class TestHardwareBackoffAccounting:
    def test_hw_backoff_cycles_tracked(self):
        def victim():
            yield Load(ADDR, sync=True)  # register
            yield Compute(5000)
            yield Load(ADDR, sync=True)  # Valid now: backs off first

        def thief():
            yield Compute(1000)
            yield Load(ADDR, sync=True)  # steals from the victim

        cores, _, protocol = run_program(DeNovoSyncProtocol, victim(), thief())
        assert cores[0].time.get(TimeComponent.HW_BACKOFF) > 0
        assert protocol.counters.get("hw_backoff_events") >= 1


class TestSelfInvalidateOp:
    def test_self_invalidate_drops_valid_words(self):
        from repro.mem.address import AddressMap
        from repro.mem.regions import RegionAllocator

        config = config_16()
        allocator = RegionAllocator(AddressMap(config))
        alloc = allocator.alloc("shared", 4)
        protocol = DeNovoSync0Protocol(config, allocator)
        sim = Simulator()
        core = Core(0, sim, protocol)
        seen = []

        def program():
            yield Load(alloc.base)
            yield SelfInvalidate((alloc.region,))
            seen.append(protocol.l1s[0].state_of(alloc.base))

        core.start(program())
        sim.run()
        from repro.mem.l1 import DeNovoState

        assert seen == [DeNovoState.INVALID]

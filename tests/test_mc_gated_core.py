"""Unit tests for the model checker's :class:`~repro.mc.controller.GatedCore`.

A gated core parks at every visible memory operation (and at every probe
of a spin loop) before the protocol sees it, and a
:class:`~repro.mc.controller.ScheduleController` release lets exactly one
such operation through.  The protocol is wrapped in a
:class:`~repro.trace.recorder.TracingProtocol`, as :func:`repro.mc.run_schedule`
wraps it, so its access records show what actually reached the protocol.
"""

import pytest

from repro.config import config_for_cores
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
from repro.mc.controller import GatedCore, ScheduleController
from repro.mem.address import AddressMap
from repro.mem.regions import RegionAllocator
from repro.protocols import make_protocol
from repro.sim.engine import Simulator
from repro.stats.timeparts import TimeComponent
from repro.trace.recorder import TracingProtocol


def gated_system(protocol_name, *program_fns):
    """Start one gated core per program function and drain to quiescence.

    Each function receives the address of one sync word and returns a
    generator.  Returns ``(sim, controller, cores, protocol)``.
    """
    config = config_for_cores(4)
    allocator = RegionAllocator(AddressMap(config))
    flag = allocator.alloc_sync("flag").base
    protocol = TracingProtocol(make_protocol(protocol_name, config, allocator))
    sim = Simulator()
    controller = ScheduleController()
    cores = [
        GatedCore(core_id, sim, protocol, controller)
        for core_id in range(len(program_fns))
    ]
    for core, program_fn in zip(cores, program_fns):
        core.start(program_fn(flag))
    sim.run()
    return sim, controller, cores, protocol


GATED = [
    lambda flag: Load(flag, sync=True),
    lambda flag: Store(flag, 1, sync=True),
    lambda flag: Cas(flag, 0, 1),
    lambda flag: Fai(flag),
    lambda flag: Swap(flag, 1),
    lambda flag: SelfInvalidate(flush_all=True),
]


@pytest.mark.parametrize(
    "make_op", GATED, ids=["Load", "Store", "Cas", "Fai", "Swap", "SelfInvalidate"]
)
def test_gated_op_parks_before_the_protocol_sees_it(make_op):
    def program(flag):
        yield make_op(flag)

    sim, controller, cores, protocol = gated_system("DeNovoSync", program)
    parked = controller.parked[0]
    assert type(parked.op) is type(make_op(0))
    assert cores[0].wait_reason == "schedule-gate"
    assert protocol.records == []
    assert sim.pending_events == 0

    controller.release(0)
    sim.run()
    assert cores[0].done
    assert controller.parked == {}


def test_first_spin_probe_is_gated():
    """``WaitLoad`` is not in ``GATED_OPS``: its very first probe must still
    park, through the gated ``_spin_probe`` rather than the base core's."""

    def waiter(flag):
        yield WaitLoad(flag, lambda v: v == 1, sync=True)

    _, controller, cores, protocol = gated_system("MESI", waiter)
    assert isinstance(controller.parked[0].op, WaitLoad)
    assert cores[0].wait_reason == "schedule-gate"
    assert protocol.records == []


def test_every_spin_probe_is_its_own_decision_point():
    """Neat polls a failed spin (no subscription to sleep on): each re-probe
    parks again, and each release lets exactly one probe reach the protocol."""

    def waiter(flag):
        yield WaitLoad(flag, lambda v: v == 1, sync=True)

    sim, controller, cores, protocol = gated_system("Neat", waiter)
    for probes in (1, 2, 3):
        controller.release(0)
        sim.run()
        assert len(protocol.records) == probes
        assert isinstance(controller.parked[0].op, WaitLoad)
    assert not cores[0].done
    assert controller.arrivals == 4


def test_release_lets_exactly_one_operation_through():
    def program(flag):
        yield Store(flag, 7, sync=True)
        yield Load(flag, sync=True)

    sim, controller, cores, protocol = gated_system("MESI", program)
    controller.release(0)
    sim.run()
    assert [record.kind for record in protocol.records] == ["store"]
    assert isinstance(controller.parked[0].op, Load)
    controller.release(0)
    sim.run()
    assert [record.kind for record in protocol.records] == ["store", "load"]
    assert cores[0].done


def test_local_operations_do_not_gate():
    def program(flag):
        yield PushBucket(TimeComponent.COMPUTE)
        yield Compute(25)
        yield PopBucket()

    sim, controller, cores, _ = gated_system("MESI", program)
    assert cores[0].done
    assert cores[0].finish_time == 25
    assert controller.arrivals == 0


def test_release_resumes_in_the_same_cycle():
    def program(flag):
        yield Compute(40)
        yield Load(flag, sync=True)

    sim, controller, cores, protocol = gated_system("MESI", program)
    assert sim.now == 40
    controller.release(0)
    assert sim.pending_events == 1
    sim.run()
    assert protocol.records[0].cycle == 40


def test_two_cores_park_independently():
    def writer(flag):
        yield Store(flag, 1, sync=True)

    def waiter(flag):
        yield WaitLoad(flag, lambda v: v == 1, sync=True)

    sim, controller, cores, _ = gated_system("MESI", writer, waiter)
    assert sorted(controller.parked) == [0, 1]
    controller.release(0)
    sim.run()
    assert cores[0].done
    assert list(controller.parked) == [1]
    controller.release(1)
    sim.run()
    assert cores[1].done


def test_base_core_carries_no_gate():
    assert not hasattr(Core, "_gate")
    assert not hasattr(Core, "GATED_OPS")
    assert not hasattr(Simulator(), "controller")

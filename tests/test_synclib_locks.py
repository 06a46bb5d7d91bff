"""Correctness tests for the lock algorithms under all three protocols.

Mutual exclusion is checked the strong way: N simulated threads increment
a shared counter with unprotected read-modify-write *data* accesses inside
the critical section; any mutual-exclusion violation or stale read loses
increments and the final count comes up short.
"""

import copy
from dataclasses import fields

import pytest

from repro.config import config_for_cores
from repro.cpu.core import Core
from repro.cpu.isa import Compute, Load, SelfInvalidate, Store
from repro.harness.runner import run_workload
from repro.protocols.registry import protocol_names
from repro.synclib.arraylock import ArrayLock
from repro.synclib.tatas import TatasLock
from repro.workloads.base import KernelSpec
from repro.workloads.registry import kernel_names, make_kernel


def locked_increment_program(machine, lock, region, counter_addr, ctx, iterations):
    for _ in range(iterations):
        token = yield from lock.acquire(ctx)
        yield SelfInvalidate((region,))
        value = yield Load(counter_addr)
        yield Compute(ctx.rng.randrange(1, 20))  # widen the race window
        yield Store(counter_addr, value + 1)
        yield from lock.release(token)
        yield Compute(ctx.rng.randrange(50, 300))


@pytest.mark.parametrize("num_cores", [4, 16])
class TestTatasMutualExclusion:
    def test_no_lost_increments(self, protocol_name, machine_factory, num_cores):
        machine = machine_factory(protocol_name, num_cores)
        lock = TatasLock(machine.allocator, "lock")
        region = machine.allocator.region("counter.data")
        counter = machine.allocator.alloc("counter.data").base
        iterations = 10
        programs = [
            locked_increment_program(
                machine, lock, region, counter, machine.ctx(i), iterations
            )
            for i in range(num_cores)
        ]
        machine.run(programs)
        assert machine.protocol.memory.read(counter) == num_cores * iterations


@pytest.mark.parametrize("num_cores", [4, 16])
class TestArrayLockMutualExclusion:
    def test_no_lost_increments(self, protocol_name, machine_factory, num_cores):
        machine = machine_factory(protocol_name, num_cores)
        lock = ArrayLock(machine.allocator, nslots=num_cores, name="alock")
        machine.initial_values = lock.initial_values()
        region = machine.allocator.region("counter.data")
        counter = machine.allocator.alloc("counter.data").base
        iterations = 10
        programs = [
            locked_increment_program(
                machine, lock, region, counter, machine.ctx(i), iterations
            )
            for i in range(num_cores)
        ]
        machine.run(programs)
        assert machine.protocol.memory.read(counter) == num_cores * iterations


class TestTatasDetails:
    def test_single_thread_acquire_release(self, protocol_name, machine_factory):
        machine = machine_factory(protocol_name, 4)
        lock = TatasLock(machine.allocator)
        done = []

        def program(ctx):
            yield from lock.acquire(ctx)
            yield from lock.release()
            done.append(True)

        machine.run([program(machine.ctx(0))])
        assert done == [True]
        assert machine.protocol.memory.read(lock.addr) == 0

    def test_lock_held_value_is_one(self, protocol_name, machine_factory):
        machine = machine_factory(protocol_name, 4)
        lock = TatasLock(machine.allocator)
        observed = []

        def program(ctx):
            yield from lock.acquire(ctx)
            observed.append(machine.protocol.memory.read(lock.addr))
            yield from lock.release()

        machine.run([program(machine.ctx(0))])
        assert observed == [1]

    def test_software_backoff_variant_still_correct(self, machine_factory):
        machine = machine_factory("DeNovoSync", 4)
        lock = TatasLock(machine.allocator, software_backoff=True)
        region = machine.allocator.region("c.data")
        counter = machine.allocator.alloc("c.data").base
        programs = [
            locked_increment_program(machine, lock, region, counter, machine.ctx(i), 5)
            for i in range(4)
        ]
        machine.run(programs)
        assert machine.protocol.memory.read(counter) == 20


class TestArrayLockDetails:
    def test_slots_cycle_in_fifo_order(self, protocol_name, machine_factory):
        machine = machine_factory(protocol_name, 4)
        lock = ArrayLock(machine.allocator, nslots=4)
        machine.initial_values = lock.initial_values()
        order = []

        def program(ctx, delay):
            yield Compute(delay)
            slot = yield from lock.acquire(ctx)
            order.append((ctx.core_id, slot))
            yield Compute(100)
            yield from lock.release(slot)

        programs = [program(machine.ctx(i), 1 + i * 2000) for i in range(4)]
        machine.run(programs)
        # Tickets (and hence slots) are handed out in arrival order.
        assert [slot for _, slot in order] == [0, 1, 2, 3]
        assert [core for core, _ in order] == [0, 1, 2, 3]

    def test_invalid_nslots_rejected(self, machine_factory):
        machine = machine_factory("MESI", 4)
        with pytest.raises(ValueError):
            ArrayLock(machine.allocator, nslots=0)


def _field_copies(op) -> tuple:
    return tuple(copy.copy(getattr(op, f.name)) for f in fields(op))


def _recording(program, yielded: list):
    """Run ``program``, appending each op it yields, with a copy of its
    fields, to ``yielded``."""
    result = None
    while True:
        try:
            op = program.send(result)
        except StopIteration:
            return
        yielded.append((op, _field_copies(op)))
        result = yield op


@pytest.mark.parametrize("protocol", protocol_names())
@pytest.mark.parametrize(
    "figure,kernel",
    [
        (figure, kernel)
        for figure in ("tatas", "array", "nonblocking")
        for kernel in kernel_names(figure)
    ],
)
def test_no_yielded_op_is_mutated(monkeypatch, figure, kernel, protocol):
    """The locks and the non-blocking structures yield prebuilt op
    objects from every thread and attempt, which is sound only while
    nothing mutates a yielded op: every op must end the run with the
    fields it was yielded with."""
    yielded = []
    start = Core.start
    monkeypatch.setattr(
        Core, "start", lambda core, program: start(core, _recording(program, yielded))
    )
    workload = make_kernel(figure, kernel, spec=KernelSpec(scale=0.02))
    run_workload(workload, protocol, config_for_cores(4), seed=1)
    # The kernels' ops are shared, so some op object was yielded twice.
    assert len({id(op) for op, _ in yielded}) < len(yielded)
    changed = [op for op, snapshot in yielded if _field_copies(op) != snapshot]
    assert changed == []


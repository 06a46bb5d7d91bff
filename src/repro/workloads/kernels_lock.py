"""Lock-based synchronization kernels (paper Figures 3 and 4).

Six kernels adapted from Michael & Scott 1998 — single-lock queue,
double-lock queue, stack, heap, counter, plus the paper's own ``large CS``
kernel with a fixed-length critical section — each built with either
TATAS locks (Figure 3) or Anderson array locks (Figure 4).

Per the paper (section 5.3.1), each iteration performs one insertion and
one retrieval (one increment for the counter), with a random dummy
computation between iterations, and no software backoff for the
lock-based kernels.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.config import SystemConfig
from repro.cpu.isa import Load, SelfInvalidate, Store
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.synclib.arraylock import ArrayLock
from repro.synclib.counters import LockedCounter
from repro.synclib.locked_structures import (
    DoubleLockQueue,
    LockedHeap,
    LockedStack,
    SingleLockQueue,
)
from repro.synclib.mcslock import McsLock
from repro.synclib.tatas import TatasLock
from repro.workloads.base import KernelSpec, KernelWorkload

#: ``tatas`` and ``array`` are the paper's Figures 3 and 4; ``mcs`` is an
#: extension (the list-based queuing lock from the same lineage).
LOCK_TYPES = ("tatas", "array", "mcs")

#: Words touched (one load + one store each) inside the large-CS kernel's
#: fixed-length critical section.
LARGE_CS_WORDS = 24


def make_lock(
    lock_type: str,
    allocator: RegionAllocator,
    nthreads: int,
    name: str,
    software_backoff: bool = False,
):
    """Build a TATAS or array lock; returns (lock, initial_values)."""
    if lock_type == "tatas":
        return TatasLock(allocator, name, software_backoff=software_backoff), {}
    if lock_type == "array":
        lock = ArrayLock(allocator, nslots=nthreads, name=name)
        return lock, lock.initial_values()
    if lock_type == "mcs":
        return McsLock(allocator, nthreads, name=name), {}
    raise ValueError(f"unknown lock type {lock_type!r}; expected {LOCK_TYPES}")


class LockKernel(KernelWorkload):
    """Shared scaffolding for the lock-based kernels."""

    base_name = "abstract"

    def __init__(
        self,
        lock_type: str = "tatas",
        spec: KernelSpec | None = None,
        software_backoff: bool = False,
    ):
        super().__init__(spec)
        if lock_type not in LOCK_TYPES:
            raise ValueError(f"unknown lock type {lock_type!r}")
        self.lock_type = lock_type
        self.software_backoff = software_backoff
        self.name = f"{self.base_name} ({lock_type})"


class SingleLockQueueKernel(LockKernel):
    base_name = "single Q"

    def setup(self, config: SystemConfig, allocator: RegionAllocator):
        lock, initial = make_lock(
            self.lock_type, allocator, config.num_cores, "slq.lock",
            self.software_backoff,
        )
        self.queue = SingleLockQueue(
            allocator, lock, capacity=2 * config.num_cores + 8
        )
        return initial

    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        yield from self.queue.enqueue(ctx, iteration + 1)
        yield from self.queue.dequeue(ctx)


class DoubleLockQueueKernel(LockKernel):
    base_name = "double Q"

    def setup(self, config: SystemConfig, allocator: RegionAllocator):
        head_lock, init_h = make_lock(
            self.lock_type, allocator, config.num_cores, "dlq.hlock",
            self.software_backoff,
        )
        tail_lock, init_t = make_lock(
            self.lock_type, allocator, config.num_cores, "dlq.tlock",
            self.software_backoff,
        )
        self.queue = DoubleLockQueue(
            allocator,
            head_lock,
            tail_lock,
            nodes_per_thread=self.spec.scaled_iterations(),
            nthreads=config.num_cores,
        )
        initial = dict(init_h)
        initial.update(init_t)
        initial.update(self.queue.initial_values())
        return initial

    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        yield from self.queue.enqueue(ctx, iteration + 1)
        yield from self.queue.dequeue(ctx)


class LockedStackKernel(LockKernel):
    base_name = "stack"

    def setup(self, config: SystemConfig, allocator: RegionAllocator):
        lock, initial = make_lock(
            self.lock_type, allocator, config.num_cores, "lstack.lock",
            self.software_backoff,
        )
        self.stack = LockedStack(allocator, lock, capacity=2 * config.num_cores + 8)
        return initial

    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        yield from self.stack.push(ctx, iteration + 1)
        yield from self.stack.pop(ctx)


class LockedHeapKernel(LockKernel):
    base_name = "heap"

    def setup(self, config: SystemConfig, allocator: RegionAllocator):
        lock, initial = make_lock(
            self.lock_type, allocator, config.num_cores, "lheap.lock",
            self.software_backoff,
        )
        self.heap = LockedHeap(allocator, lock, capacity=2 * config.num_cores + 8)
        return initial

    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        # Data-dependent key pattern exercises different sift paths.
        key = ctx.rng.randrange(1, 1 << 20)
        yield from self.heap.insert(ctx, key)
        yield from self.heap.extract_min(ctx)


class LockedCounterKernel(LockKernel):
    base_name = "counter"

    def setup(self, config: SystemConfig, allocator: RegionAllocator):
        lock, initial = make_lock(
            self.lock_type, allocator, config.num_cores, "lcounter.lock",
            self.software_backoff,
        )
        self.counter = LockedCounter(allocator, lock)
        return initial

    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        yield from self.counter.increment(ctx)


class LargeCSKernel(LockKernel):
    """Fixed-length large critical section over a shared scratch array."""

    base_name = "large CS"

    def setup(self, config: SystemConfig, allocator: RegionAllocator):
        lock, initial = make_lock(
            self.lock_type, allocator, config.num_cores, "largecs.lock",
            self.software_backoff,
        )
        self.lock = lock
        self.region = allocator.region("largecs.data")
        self.data = allocator.alloc("largecs.data", LARGE_CS_WORDS).base
        return initial

    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        token = yield from self.lock.acquire(ctx)
        yield SelfInvalidate((self.region,))
        for i in range(LARGE_CS_WORDS):
            value = yield Load(self.data + i)
            yield Store(self.data + i, value + 1)
        yield from self.lock.release(token)


#: The Figure 3 / Figure 4 kernel set, in figure order.
LOCK_KERNELS = {
    "single Q": SingleLockQueueKernel,
    "double Q": DoubleLockQueueKernel,
    "stack": LockedStackKernel,
    "heap": LockedHeapKernel,
    "counter": LockedCounterKernel,
    "large CS": LargeCSKernel,
}

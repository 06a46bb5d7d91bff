"""Shared counters: lock-protected and fetch-and-increment (non-blocking).

The locked counter is the smallest possible critical section (one data
read-modify-write on one shared variable); the FAI counter is the
smallest possible non-blocking kernel (its fetch-and-increment *is* the
linearization point, with no pre-linearization reads at all).
"""

from __future__ import annotations

from repro.cpu.isa import Fai, Load, SelfInvalidate, Store
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator


class LockedCounter:
    """A counter incremented under a lock."""

    def __init__(self, allocator: RegionAllocator, lock, name: str = "lcounter"):
        self.lock = lock
        self.region = allocator.region(f"{name}.data")
        self.addr = allocator.alloc(f"{name}.data").base

    def increment(self, ctx: ThreadCtx):
        """Generator: returns the pre-increment value."""
        token = yield from self.lock.acquire(ctx)
        yield SelfInvalidate((self.region,))
        value = yield Load(self.addr)
        yield Store(self.addr, value + 1)
        yield from self.lock.release(token)
        return value


class FaiCounter:
    """A counter incremented with a single fetch-and-increment."""

    def __init__(self, allocator: RegionAllocator, name: str = "fai"):
        self.addr = allocator.alloc_sync(name).base
        self._increment = Fai(self.addr)  # shared by every thread

    def increment(self, ctx: ThreadCtx):
        """Generator: returns the pre-increment value."""
        old = yield self._increment
        return old

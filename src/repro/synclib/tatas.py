"""Test-and-Test-and-Set lock.

The common single-variable spin lock (paper section 6.1.1).  The *Test*
phase spins on synchronization reads until the lock looks free; only then
does the thread attempt the *Test-and-Set* (an atomic swap), whose success
is the acquire's linearization point.  The release is a synchronization
store of zero, marked with release semantics.

An optional software exponential backoff after a failed Test-and-Set
supports the paper's section 7.1.1 sensitivity study.

The lock builds its three ops once and every thread yields the same
objects (see :mod:`repro.cpu.isa`: nothing mutates a yielded op), so an
attempt costs no op construction.
"""

from __future__ import annotations

from repro.cpu.isa import Store, Swap, WaitLoad
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.synclib.backoff_sw import exponential_backoff

LOCK_FREE = 0
LOCK_HELD = 1


class TatasLock:
    """A Test-and-Test-and-Set spin lock on one shared word."""

    def __init__(
        self,
        allocator: RegionAllocator,
        name: str = "tatas",
        software_backoff: bool = False,
    ):
        self.addr = addr = allocator.alloc_sync(name).base
        self.software_backoff = software_backoff
        self._test = WaitLoad(addr, lambda v: v == LOCK_FREE, sync=True)
        self._grab = Swap(addr, LOCK_HELD, acquire=True)
        self._free = Store(addr, LOCK_FREE, sync=True, release=True)

    def acquire(self, ctx: ThreadCtx | None = None):
        """Generator: spin until the lock is acquired."""
        attempt = 0
        while True:
            # Test: spin (reads only) until the lock appears free.
            yield self._test
            # Test-and-Set: the linearization (and acquire) point on
            # success; firing acquire on a failed TAS too is conservative.
            old = yield self._grab
            if old == LOCK_FREE:
                return
            if self.software_backoff and ctx is not None:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1

    def release(self, token=None):
        """Generator: release the lock (a synchronization release store).

        ``token`` is ignored; it exists so TATAS and array locks share the
        ``token = yield from acquire(...)`` / ``yield from release(token)``
        calling convention.
        """
        yield self._free

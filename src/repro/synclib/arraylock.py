"""Anderson array-based queuing lock (paper section 6.1.2).

Each acquirer fetch-and-increments a tail counter to claim a slot, then
spins on its own flag word; the releaser sets the next slot's flag.  With
one waiter per flag there is no read-sharing, which is why the paper finds
DeNovoSync's backoff irrelevant here and the protocols mostly comparable —
except that the successful acquire is immediately followed by a write that
resets the flag for reuse: a free hit under DeNovo (the acquire read
registered the word) but a separate ownership request under MESI.

Flag words are padded to distinct cache lines (the distributed layout is
the entire point of the algorithm).

The lock builds every op once, per slot where the op names a flag, and
every thread yields the same objects (see :mod:`repro.cpu.isa`: nothing
mutates a yielded op).
"""

from __future__ import annotations

from repro.cpu.isa import Fai, Store, WaitLoad
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator

FLAG_WAIT = 0
FLAG_GO = 1


class ArrayLock:
    """An Anderson queueing lock with ``nslots`` line-padded flag words."""

    def __init__(self, allocator: RegionAllocator, nslots: int, name: str = "arraylock"):
        if nslots < 1:
            raise ValueError("nslots must be >= 1")
        self.nslots = nslots
        self.tail = allocator.alloc_sync(f"{name}.tail").base
        self.flags = flags = [
            allocator.alloc(f"{name}.flag{i}", 1, line_align=True).base
            for i in range(nslots)
        ]
        self._ticket = Fai(self.tail)
        self._wait = [
            WaitLoad(flag, lambda v: v == FLAG_GO, sync=True, acquire=True)
            for flag in flags
        ]
        self._reset = [Store(flag, FLAG_WAIT, sync=True) for flag in flags]
        # Slot i's release opens slot i + 1.
        self._pass = [
            Store(flags[(slot + 1) % nslots], FLAG_GO, sync=True, release=True)
            for slot in range(nslots)
        ]

    def initial_values(self) -> dict[int, int]:
        """Initial memory image: slot 0 starts open."""
        return {self.flags[0]: FLAG_GO}

    def acquire(self, ctx: ThreadCtx | None = None):
        """Generator: returns the acquired slot index (pass to release)."""
        ticket = yield self._ticket
        slot = ticket % self.nslots
        yield self._wait[slot]
        # Reset our flag so the slot can be reused on the next wrap-around.
        # Under DeNovo the acquire read registered the word, so this hits;
        # MESI needs a separate ownership request (section 6.1.2).
        yield self._reset[slot]
        return slot

    def release(self, slot: int):
        """Generator: hand the lock to the next slot."""
        yield self._pass[slot]

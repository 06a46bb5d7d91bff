"""A PLJ-style (Prakash-Lee-Johnson) non-blocking queue.

The original PLJ queue takes a consistent snapshot of (head, tail) with
repeated reads, then linearizes at a CAS.  We implement a bounded-array
variant with the same *access pattern*: enqueue/dequeue snapshot the
index words and the target slot (several synchronization reads), validate
the snapshot with a re-read, and linearize at a slot CAS followed by a
helping CAS on the index.  Compared to the Michael-Scott queue this trades
pointer chasing for more index reads per operation — it remains a
read-heavy multi-variable CAS loop, the pattern section 6.2 analyzes.

Slots are single-use (the array is sized for the whole run), which plays
the role of PLJ's unbounded node space and avoids ABA on slot reuse.
"""

from __future__ import annotations

from repro.cpu.isa import Cas, Load
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.synclib.backoff_sw import exponential_backoff

EMPTY_SLOT = 0
TAKEN_SLOT = -1


class PLJQueue:
    """Non-blocking FIFO over a single-use slot array.

    Values must be positive integers (0 and -1 are the empty/taken
    sentinels).
    """

    def __init__(
        self,
        allocator: RegionAllocator,
        total_ops: int,
        name: str = "plj",
        software_backoff: bool = True,
    ):
        self.software_backoff = software_backoff
        self.capacity = total_ops + 1
        self.head = allocator.alloc_sync(f"{name}.head").base
        self.tail = allocator.alloc_sync(f"{name}.tail").base
        self.slots = allocator.alloc(f"{name}.slots", self.capacity).base
        # Ops built once and yielded by every thread (see repro.cpu.isa).
        self._read_head = Load(self.head, sync=True)
        self._read_tail = Load(self.tail, sync=True)

    def enqueue(self, ctx: ThreadCtx, value: int):
        if value <= 0:
            raise ValueError("PLJQueue values must be positive")
        attempt = 0
        while True:
            tail = yield self._read_tail
            slot = yield Load(self.slots + tail, sync=True)
            tail2 = yield self._read_tail  # snapshot validation
            if tail == tail2:
                if slot == EMPTY_SLOT:
                    old = yield Cas(self.slots + tail, EMPTY_SLOT, value)
                    if old == EMPTY_SLOT:
                        _ = yield Cas(self.tail, tail, tail + 1, release=True)
                        return
                else:
                    # Someone published at this slot; help the tail along.
                    _ = yield Cas(self.tail, tail, tail + 1)
            if self.software_backoff:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1

    def dequeue(self, ctx: ThreadCtx):
        """Generator: returns the value, or None when empty."""
        attempt = 0
        while True:
            head = yield self._read_head
            tail = yield self._read_tail
            slot = yield Load(self.slots + head, sync=True)
            head2 = yield self._read_head  # snapshot validation
            if head == head2:
                if head == tail and slot == EMPTY_SLOT:
                    return None  # empty
                if slot not in (EMPTY_SLOT, TAKEN_SLOT):
                    old = yield Cas(self.slots + head, slot, TAKEN_SLOT)
                    if old == slot:
                        _ = yield Cas(self.head, head, head + 1, release=True)
                        return slot
                else:
                    # The slot was consumed but head lags; help it along.
                    if slot == TAKEN_SLOT:
                        _ = yield Cas(self.head, head, head + 1)
            if self.software_backoff:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1

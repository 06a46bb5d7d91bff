"""Herlihy-style non-blocking stack and heap (copy-and-CAS methodology).

Herlihy's general methodology for small objects [14]: read the shared
pointer to the current version, copy the object into a fresh private
block, apply the operation to the copy, and linearize with a CAS swinging
the pointer to the new version.  The version pointer is the CAS target;
the version contents are data, self-invalidated before the copy (the
pointer read is the acquire).

The paper notes (section 7.1.3) that the Herlihy kernels from Michael &
Scott's suite carry many *equality checks* — re-reads of the shared
pointer that only filter doomed attempts early.  They help on
writer-initiated-invalidation protocols (the re-read is a cached hit) but
hurt reader-initiated protocols like DeNovo (every re-read is a
registration miss).  ``reduced_checks=True`` builds the modified versions
the paper evaluates, with those re-reads removed.

Version blocks are bump-allocated per thread and never reused.
"""

from __future__ import annotations

from repro.cpu.isa import Cas, Load, SelfInvalidate, Store
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.synclib.backoff_sw import exponential_backoff

NULL = 0


class _VersionedObject:
    """Shared machinery: a version pointer plus per-thread block pools."""

    def __init__(
        self,
        allocator: RegionAllocator,
        block_words: int,
        blocks_per_thread: int,
        nthreads: int,
        name: str,
        reduced_checks: bool = False,
        software_backoff: bool = True,
    ):
        self.block_words = block_words
        self.reduced_checks = reduced_checks
        self.software_backoff = software_backoff
        self.ptr = allocator.alloc_sync(f"{name}.ptr").base
        self.versions = allocator.region(f"{name}.versions")
        self.initial_block = allocator.alloc(
            f"{name}.versions", block_words, line_align=True
        ).base
        self._pools = []
        for _thread in range(nthreads):
            pool = [
                allocator.alloc(f"{name}.versions", block_words, line_align=True).base
                for _ in range(blocks_per_thread + 1)
            ]
            self._pools.append(pool)
        self._next_block = [0] * nthreads
        # Ops built once and yielded by every thread (see repro.cpu.isa).
        self._acquire_ptr = Load(self.ptr, sync=True, acquire=True)
        self._check_ptr = Load(self.ptr, sync=True)
        self._invalidate_versions = SelfInvalidate((self.versions,))

    def initial_values(self) -> dict[int, int]:
        return {self.ptr: self.initial_block}

    def _peek_block(self, thread: int) -> int:
        """The thread's next free block (consumed only on a successful CAS:
        a failed attempt's block was never published and is safely reused)."""
        return self._pools[thread][self._next_block[thread]]

    def _consume_block(self, thread: int) -> None:
        self._next_block[thread] += 1

    def _read_current(self, ctx: ThreadCtx):
        """Read (and optionally re-validate) the current version pointer."""
        # The pointer read is the acquire: it synchronizes with the
        # release-CAS that published the current version block.
        current = yield self._acquire_ptr
        if not self.reduced_checks:
            # Equality checks: re-read the pointer to filter doomed attempts
            # early (cheap under MESI, a registration miss under DeNovo).
            check = yield self._check_ptr
            if check != current:
                return None
            check = yield self._check_ptr
            if check != current:
                return None
        return current

    def _update(self, ctx: ThreadCtx, transform):
        """Run one copy-and-CAS attempt loop; returns transform's result.

        ``transform(old_block, new_block)`` is a generator that copies and
        modifies; it returns (result, success) where success=False aborts
        the operation (e.g. popping an empty stack).
        """
        attempt = 0
        while True:
            current = yield from self._read_current(ctx)
            if current is not None:
                yield self._invalidate_versions
                new_block = self._peek_block(ctx.core_id)
                result, proceed = yield from transform(current, new_block)
                if not proceed:
                    return result
                if not self.reduced_checks:
                    check = yield self._check_ptr
                    if check != current:
                        current = None  # doomed; skip the CAS
                if current is not None:
                    old = yield Cas(self.ptr, current, new_block, release=True)
                    if old == current:
                        self._consume_block(ctx.core_id)
                        return result
            if self.software_backoff:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1


class HerlihyStack(_VersionedObject):
    """A bounded stack as a versioned block: [size, item0, item1, ...]."""

    def __init__(
        self,
        allocator: RegionAllocator,
        capacity: int,
        blocks_per_thread: int,
        nthreads: int,
        name: str = "hstack",
        reduced_checks: bool = False,
        software_backoff: bool = True,
    ):
        super().__init__(
            allocator,
            block_words=capacity + 1,
            blocks_per_thread=blocks_per_thread,
            nthreads=nthreads,
            name=name,
            reduced_checks=reduced_checks,
            software_backoff=software_backoff,
        )
        self.capacity = capacity

    def push(self, ctx: ThreadCtx, value: int):
        def transform(old, new):
            size = yield Load(old)
            if size >= self.capacity:
                raise OverflowError("HerlihyStack overflow")
            for i in range(size):
                item = yield Load(old + 1 + i)
                yield Store(new + 1 + i, item)
            yield Store(new + 1 + size, value)
            yield Store(new, size + 1)
            return None, True

        return (yield from self._update(ctx, transform))

    def pop(self, ctx: ThreadCtx):
        """Generator: returns the value, or None when empty."""

        def transform(old, new):
            size = yield Load(old)
            if size == 0:
                return None, False
            for i in range(size - 1):
                item = yield Load(old + 1 + i)
                yield Store(new + 1 + i, item)
            top = yield Load(old + size)
            yield Store(new, size - 1)
            return top, True

        return (yield from self._update(ctx, transform))


class HerlihyHeap(_VersionedObject):
    """A bounded binary min-heap as a versioned block: [size, items...]."""

    def __init__(
        self,
        allocator: RegionAllocator,
        capacity: int,
        blocks_per_thread: int,
        nthreads: int,
        name: str = "hheap",
        reduced_checks: bool = False,
        software_backoff: bool = True,
    ):
        super().__init__(
            allocator,
            block_words=capacity + 1,
            blocks_per_thread=blocks_per_thread,
            nthreads=nthreads,
            name=name,
            reduced_checks=reduced_checks,
            software_backoff=software_backoff,
        )
        self.capacity = capacity

    def insert(self, ctx: ThreadCtx, value: int):
        def transform(old, new):
            size = yield Load(old)
            if size >= self.capacity:
                raise OverflowError("HerlihyHeap overflow")
            heap = []
            for i in range(size):
                item = yield Load(old + 1 + i)
                heap.append(item)
            heap.append(value)
            # Sift up in the copy (local computation on copied values).
            hole = size
            while hole > 0 and heap[(hole - 1) // 2] > heap[hole]:
                parent = (hole - 1) // 2
                heap[hole], heap[parent] = heap[parent], heap[hole]
                hole = parent
            for i, item in enumerate(heap):
                yield Store(new + 1 + i, item)
            yield Store(new, size + 1)
            return None, True

        return (yield from self._update(ctx, transform))

    def extract_min(self, ctx: ThreadCtx):
        """Generator: returns the minimum, or None when empty."""

        def transform(old, new):
            size = yield Load(old)
            if size == 0:
                return None, False
            heap = []
            for i in range(size):
                item = yield Load(old + 1 + i)
                heap.append(item)
            result = heap[0]
            last = heap.pop()
            if heap:
                heap[0] = last
                hole = 0
                while True:
                    child = 2 * hole + 1
                    if child >= len(heap):
                        break
                    if child + 1 < len(heap) and heap[child + 1] < heap[child]:
                        child += 1
                    if heap[child] >= heap[hole]:
                        break
                    heap[hole], heap[child] = heap[child], heap[hole]
                    hole = child
            for i, item in enumerate(heap):
                yield Store(new + 1 + i, item)
            yield Store(new, size - 1)
            return result, True

        return (yield from self._update(ctx, transform))

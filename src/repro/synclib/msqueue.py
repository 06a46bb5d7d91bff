"""The Michael-Scott non-blocking queue (paper Figure 1).

A linked list with head and tail pointers and a dummy node.  Enqueue
finds the real tail (helping a lagging tail pointer along), links the new
node with a CAS on ``tail->next`` (the linearization point), then swings
the tail.  Dequeue reads head/tail/next with consistency checks and
linearizes at the CAS on ``head``.

All pointer words (head, tail, every node's ``next``) are synchronization
accesses — they are CAS targets and participate in races.  Node *values*
are data, read after a self-invalidation of the value region, exactly the
split the paper's region-based data-consistency scheme needs.

Nodes are bump-allocated per thread and never reused, which sidesteps the
ABA problem the original algorithm solves with counted pointers (our
simulated words hold full pointers, so reuse without counters would be
unsafe; no-reuse preserves the synchronization access pattern, which is
what the evaluation measures).
"""

from __future__ import annotations

from repro.cpu.isa import Cas, Load, SelfInvalidate, Store
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.synclib.backoff_sw import exponential_backoff

NULL = 0


class MichaelScottQueue:
    """Non-blocking FIFO queue; ``enqueue``/``dequeue`` are generators."""

    NODE_WORDS = 2  # [value, next]

    def __init__(
        self,
        allocator: RegionAllocator,
        nodes_per_thread: int,
        nthreads: int,
        name: str = "msq",
        software_backoff: bool = True,
    ):
        self.software_backoff = software_backoff
        self.head = allocator.alloc_sync(f"{name}.head").base
        self.tail = allocator.alloc_sync(f"{name}.tail").base
        self.values = allocator.region(f"{name}.values")
        # Nodes are line-padded: value and next in one line, one node per
        # line, as real implementations pad to avoid false sharing.
        self.dummy = allocator.alloc(f"{name}.values", self.NODE_WORDS, line_align=True).base
        self._pools = []
        for _thread in range(nthreads):
            pool = [
                allocator.alloc(f"{name}.values", self.NODE_WORDS, line_align=True).base
                for _ in range(nodes_per_thread + 1)
            ]
            self._pools.append(pool)
        self._next_node = [0] * nthreads
        # Ops built once and yielded by every thread (see repro.cpu.isa).
        self._read_head = Load(self.head, sync=True)
        self._read_tail = Load(self.tail, sync=True)
        self._invalidate_values = SelfInvalidate((self.values,))

    def initial_values(self) -> dict[int, int]:
        return {self.head: self.dummy, self.tail: self.dummy}

    def _alloc_node(self, thread: int) -> int:
        index = self._next_node[thread]
        self._next_node[thread] = index + 1
        return self._pools[thread][index]

    def enqueue(self, ctx: ThreadCtx, value: int):
        node = self._alloc_node(ctx.core_id)
        yield Store(node, value)  # node.value: data
        yield Store(node + 1, NULL, sync=True)  # node.next: sync (CAS target)
        attempt = 0
        while True:
            tail = yield self._read_tail  # (1) pt := tail
            nxt = yield Load(tail + 1, sync=True)  # (2) pn := pt->next
            tail2 = yield self._read_tail  # (3) if pt == tail
            if tail == tail2:
                if nxt == NULL:
                    # (5) linearization; release publishes node.value to
                    # the dequeuer that acquires through this link.
                    old = yield Cas(tail + 1, NULL, node, release=True)
                    if old == NULL:
                        break
                else:
                    _ = yield Cas(self.tail, tail, nxt)  # (6) help the tail along
            if self.software_backoff:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1
        _ = yield Cas(self.tail, tail, node, release=True)  # (7) swing the tail

    def dequeue(self, ctx: ThreadCtx):
        """Generator: returns the value, or None when empty."""
        attempt = 0
        while True:
            head = yield self._read_head
            tail = yield self._read_tail
            # The link read is the dequeue's acquire: it synchronizes with
            # the enqueuer's linearizing release-CAS on this word.
            nxt = yield Load(head + 1, sync=True, acquire=True)
            head2 = yield self._read_head
            if head == head2:
                if head == tail:
                    if nxt == NULL:
                        return None  # empty
                    _ = yield Cas(self.tail, tail, nxt)  # help a lagging tail
                else:
                    yield self._invalidate_values
                    value = yield Load(nxt)  # pn->val: data
                    old = yield Cas(self.head, head, nxt, release=True)
                    if old == head:
                        return value
            if self.software_backoff:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1

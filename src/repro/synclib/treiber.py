"""The Treiber non-blocking stack.

Push reads the top pointer, points the new node at it, and linearizes at
a CAS on ``top``; pop reads top, fetches the node's next pointer, and
linearizes at a CAS swinging ``top`` to it.  The top pointer is the only
CAS target; node fields are data, read after a self-invalidation of the
node region (the pop's successful read of ``top`` is its acquire).

Nodes are bump-allocated per thread and never reused (see the ABA note in
:mod:`repro.synclib.msqueue`).
"""

from __future__ import annotations

from repro.cpu.isa import Cas, Load, SelfInvalidate, Store
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.synclib.backoff_sw import exponential_backoff

NULL = 0


class TreiberStack:
    """Non-blocking LIFO stack; ``push``/``pop`` are generators."""

    NODE_WORDS = 2  # [value, next]

    def __init__(
        self,
        allocator: RegionAllocator,
        nodes_per_thread: int,
        nthreads: int,
        name: str = "treiber",
        software_backoff: bool = True,
    ):
        self.software_backoff = software_backoff
        self.top = allocator.alloc_sync(f"{name}.top").base
        self.nodes = allocator.region(f"{name}.nodes")
        self._pools = []
        for _thread in range(nthreads):
            pool = [
                allocator.alloc(f"{name}.nodes", self.NODE_WORDS, line_align=True).base
                for _ in range(nodes_per_thread + 1)
            ]
            self._pools.append(pool)
        self._next_node = [0] * nthreads
        # Ops built once and yielded by every thread (see repro.cpu.isa).
        self._read_top = Load(self.top, sync=True)
        self._acquire_top = Load(self.top, sync=True, acquire=True)
        self._invalidate_nodes = SelfInvalidate((self.nodes,))

    def _alloc_node(self, thread: int) -> int:
        index = self._next_node[thread]
        self._next_node[thread] = index + 1
        return self._pools[thread][index]

    def push(self, ctx: ThreadCtx, value: int):
        node = self._alloc_node(ctx.core_id)
        yield Store(node, value)  # node.value: data
        attempt = 0
        while True:
            top = yield self._read_top
            yield Store(node + 1, top)  # node.next: data, published by the CAS
            old = yield Cas(self.top, top, node, release=True)
            if old == top:
                return
            if self.software_backoff:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1

    def pop(self, ctx: ThreadCtx):
        """Generator: returns the value, or None when empty."""
        attempt = 0
        while True:
            # The successful read of top is the pop's acquire: it
            # synchronizes with the release-CAS that published the node.
            top = yield self._acquire_top
            if top == NULL:
                return None
            yield self._invalidate_nodes
            nxt = yield Load(top + 1)  # node.next: data
            old = yield Cas(self.top, top, nxt, release=True)
            if old == top:
                value = yield Load(top)  # node.value: data
                return value
            if self.software_backoff:
                yield from exponential_backoff(ctx.rng, attempt)
                attempt += 1

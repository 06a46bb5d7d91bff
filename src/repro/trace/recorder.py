"""A protocol wrapper that records every access it forwards.

``TracingProtocol`` is a :class:`~repro.protocols.base.ProtocolWrapper`
around any :class:`~repro.protocols.base.CoherenceProtocol`: cores talk
to it exactly as they would to the wrapped protocol, and every load,
store, RMW and self-invalidation lands in the trace (directory retries
are not recorded — they are re-issues of the same access).  Accesses are
recorded without acquire semantics: an acquire reaches a protocol only
through :meth:`TracingProtocol.on_acquire`, which the core calls right
after the completed access, and that call marks the access's record.
"""

from __future__ import annotations

from dataclasses import replace
from collections.abc import Callable

from repro.mem.regions import Region
from repro.protocols.base import CoherenceProtocol, ProtocolWrapper
from repro.trace.events import AccessRecord


class TracingProtocol(ProtocolWrapper):
    """Record accesses while delegating everything to ``inner``."""

    def __init__(self, inner: CoherenceProtocol):
        super().__init__(inner)
        self.records: list[AccessRecord] = []

    def on_acquire(self, core_id: int, addr: int) -> None:
        self.inner.on_acquire(core_id, addr)
        # Cores call this right after the access that won the acquire (an
        # acquire-marked load or RMW, or a spin wait's successful probe):
        # stamp that record so replay preserves the acquire point.  Failed
        # probes of the same spin stay plain loads — the acquire only
        # happens once.
        for i in range(len(self.records) - 1, -1, -1):
            record = self.records[i]
            if record.core != core_id:
                continue
            if record.addr == addr and record.kind in ("load", "rmw"):
                if not record.acquire:
                    self.records[i] = replace(record, acquire=True)
            break

    # -- recorded operations -------------------------------------------------

    def load(self, core_id: int, addr: int, sync: bool = False) -> tuple:
        access = self.inner.load(core_id, addr, sync)
        self._record("load", core_id, addr, sync, False, access)
        return access

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
    ) -> tuple:
        access = self.inner.store(core_id, addr, value, sync, release)
        self._record("store", core_id, addr, sync, release, access, value=value)
        return access

    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
    ) -> tuple:
        access = self.inner.rmw(core_id, addr, fn, release)
        # Record the post-RMW value so replay can pin the outcome.
        value = self.inner.memory.read(addr)
        self._record("rmw", core_id, addr, True, release, access, value=value)
        return access

    def self_invalidate(
        self, core_id: int, regions: list[Region], flush_all: bool = False
    ) -> int:
        latency = self.inner.self_invalidate(core_id, regions, flush_all=flush_all)
        self.records.append(
            AccessRecord(
                cycle=self.inner.now,
                core=core_id,
                kind="selfinv",
                addr=-1 if flush_all else (regions[0].region_id if regions else -1),
                value=1 if flush_all else 0,
                latency=latency,
                regions=tuple(r.region_id for r in regions) if not flush_all else (),
            )
        )
        return latency

    def _record(
        self, kind, core_id, addr, sync, release, access: tuple, value=None
    ) -> None:
        loaded, latency, hit, retry = access
        if retry:  # only the re-issue is recorded
            return
        self.records.append(
            AccessRecord(
                cycle=self.inner.now,
                core=core_id,
                kind=kind,
                addr=addr,
                sync=sync,
                release=release,
                value=loaded if value is None else value,
                latency=latency,
                hit=hit,
            )
        )

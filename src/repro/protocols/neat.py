"""Neat: low-complexity self-invalidation + self-downgrade coherence.

Models the Neat design point (Kaxiras et al., arXiv:2107.05453): a
coherence protocol with *no global tracking state at all* — no sharer
directory, no DeNovo-style registry — built from exactly two mechanisms
that each core applies to itself:

* **Self-invalidation (Si)**: at an acquire, the core flash-invalidates
  the Valid words of the annotated regions from its own L1 (identical
  to DeNovo's acquire behaviour, reusing the region-indexed tracking).
* **Self-downgrade (Sd)**: data writes complete locally, marking the
  word dirty in the writer's L1; at a *release* the core writes every
  dirty word back to its LLC home bank and downgrades its copies to
  clean Valid.  Until then a dirty word costs zero traffic — Neat
  trades write-through traffic for a burst of word-granularity
  writebacks per release.

Because nothing tracks ownership, synchronization cannot be resolved in
an L1: every sync access (WaitLoad/Store/Cas/Fai/Swap on a sync
variable) goes to the word's LLC home bank, operates on the
architectural value there, and never leaves a usable copy behind — the
local copy (if any) is dropped so repeated probes are honest misses.
Spinners therefore *poll*; there is no wake-up subscription (the
``subscribe_line_change`` hook stays False), matching Neat's
atomics-at-LLC treatment.

Storage-wise the model shares the DeNovo family's L1 side
(:class:`~repro.protocols.denovo_base.SelfInvalidatingProtocol`):
``Registered`` plays "dirty", ``Valid`` plays "clean"; the per-core
``_dirty`` sets are the write-back lists a real Neat L1 keeps as
per-line dirty bits.  Replacement of a dirty word writes it back (the
shared eviction handler, which drops it from ``_dirty``), exactly like a
write-back cache.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mem.l1 import INVALID, REGISTERED, VALID
from repro.noc.messages import LOAD, SYNCH, WRITEBACK
from repro.protocols.base import SpinLease
from repro.protocols.denovo_base import SelfInvalidatingProtocol
from repro.protocols.invariants import neat_violations
from repro.protocols.registry import register_protocol


@register_protocol(
    name="Neat",
    label="Neat",
    paper="Neat (arXiv:2107.05453)",
    summary=(
        "Self-invalidation + self-downgrade with no directory or "
        "registry; dirty words write back at releases, sync ops "
        "resolve at the LLC and spinners poll."
    ),
    tracking="dirty-set",
    invalidation="self",
    requires_annotations=True,
    default_comparison=True,
    app_comparison=True,
)
class NeatProtocol(SelfInvalidatingProtocol):
    name = "Neat"

    def __init__(self, config, allocator=None):
        super().__init__(config, allocator)
        #: Per-core set of dirty word addresses (held Registered in the
        #: L1) awaiting their self-downgrade writeback.
        self._dirty: list[set[int]] = [set() for _ in range(config.num_cores)]
        self._flush_line_cost = config.tuning.neat_flush_line_cost

    def _drop_owned(self, core_id: int, addr: int) -> None:
        # Replacement wrote the dirty word back before the next release.
        self._dirty[core_id].discard(addr)

    # -- data accesses -------------------------------------------------------

    def load(self, core_id: int, addr: int, sync: bool = False) -> tuple:
        if sync:
            self._counts["sync_read_misses"] += 1
            latency = self._sync_access(core_id, addr)
            return (self._mem_get(addr, 0), latency, False, False)
        l1 = self.l1s[core_id]
        value = l1.present_value(addr)
        if value is not None:
            self._counts["l1_hits"] += 1
            return (value, self._l1_hit, True, False)

        # Miss: the LLC always owns a usable copy (dirty words elsewhere
        # only diverge from it until their release, and reading them
        # before that release is a data race Si/Sd does not order).
        self._counts["l1_misses"] += 1
        line = addr // self._wpl
        bank = line % self._nbanks
        latency = self.llc_fetch_latency(core_id, line, LOAD)
        self.record_control(LOAD, core_id, bank)
        filled = l1.fill_line_valid(
            line, self.amap.words_of_line(line), self._mem_values
        )
        self.record_data(LOAD, bank, core_id, self._word_bytes * filled)
        return (self._mem_get(addr, 0), latency, False, False)

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
    ) -> tuple:
        if sync:
            old = self._mem_get(addr, 0)
            # Sd: the release write publishes every dirty word first.
            flush = self._flush_dirty(core_id) if release else 0
            latency = self._sync_access(core_id, addr)
            self._mem_values[addr] = value
            return (old, latency + flush, False, False)
        # Data write: completes locally, marked dirty, zero traffic now —
        # the cost is deferred to the release flush (or replacement).
        l1 = self.l1s[core_id]
        old = self._mem_get(addr, 0)
        if l1.try_write_registered(addr, value):
            self._counts["l1_hits"] += 1
            self._mem_values[addr] = value
            return (old, self._l1_hit, True, False)
        self._counts["l1_misses"] += 1
        l1.fill_word(addr, value, REGISTERED)
        self._dirty[core_id].add(addr)
        self._mem_values[addr] = value
        return (old, self._l1_hit, False, False)

    # -- synchronization accesses --------------------------------------------

    def _sync_access(self, core_id: int, addr: int) -> int:
        """One sync op at ``addr``'s LLC home bank; returns its latency.

        Drops any local copy first (a cached sync word would otherwise
        satisfy later spin probes with a stale value forever — Neat has
        no one to wake a spinner, so probes must reach the LLC)."""
        l1 = self.l1s[core_id]
        if l1.state_of(addr, touch=False) is not INVALID:
            self._dirty[core_id].discard(addr)
            l1.invalidate_word(addr)
        self._counts["l1_misses"] += 1
        line = addr // self._wpl
        bank = line % self._nbanks
        latency = self.llc_fetch_latency(core_id, line, SYNCH)
        self.record_control(SYNCH, core_id, bank)
        self.record_data(SYNCH, bank, core_id, self._word_bytes)
        return latency

    def spin_poll_lease(self, core_id: int, addr: int) -> SpinLease | None:
        """Neat spinners poll the LLC; the failed polls are stateless.

        After the first probe of a spin wait the polled word is Invalid
        in the spinner's L1 (``_sync_access`` drops the copy and never
        refills it) and its line is LLC-resident, so every further
        failed poll repeats exactly: +1 ``sync_read_misses``, +1
        ``l1_misses``, one SYNCH control/data round trip to the home
        bank, and the warm home-bank latency.  Nothing else in the
        protocol moves — no registry, no subscriptions, no backoff —
        which is precisely the quiescent-until-signaled contract of
        :meth:`~repro.protocols.base.CoherenceProtocol.spin_poll_lease`.
        """
        line = addr // self._wpl
        bank = line % self._nbanks
        if line not in self._resident:
            # The next poll would be a cold miss (can only happen if no
            # probe ran yet); let the full probes handle it.
            return None
        return SpinLease(
            latency=self._l2_flat[core_id * self._ntiles + bank],
            counts=("sync_read_misses", "l1_misses"),
            messages=(
                (SYNCH, core_id, bank, 0),
                (SYNCH, bank, core_id, self._word_bytes),
            ),
        )

    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
    ) -> tuple:
        flush = self._flush_dirty(core_id) if release else 0
        latency = self._sync_access(core_id, addr)
        old = self._mem_get(addr, 0)
        new = fn(old)
        if new is not None:
            self._mem_values[addr] = new
        self._counts["rmws"] += 1
        return (old, latency + flush, False, False)

    def _flush_dirty(self, core_id: int) -> int:
        """Self-downgrade: write every dirty word back to its LLC home
        bank and downgrade the copies to clean Valid; returns the added
        latency (per dirty line, the flush pipeline cost)."""
        dirty = self._dirty[core_id]
        if not dirty:
            return 0
        l1 = self.l1s[core_id]
        wpl = self._wpl
        by_line: dict[int, int] = {}
        for addr in sorted(dirty):
            line = addr // wpl
            by_line[line] = by_line.get(line, 0) + 1
            l1.downgrade(addr, VALID)
        for line, nwords in by_line.items():
            bank = line % self._nbanks
            self.record_data(
                WRITEBACK, core_id, bank,
                self._word_bytes * nwords,
            )
        self.counters.bump("self_downgraded_words", len(dirty))
        dirty.clear()
        return self._flush_line_cost * len(by_line)

    # -- runtime invariants & diagnostics ------------------------------------

    def invariant_violations(self) -> list[str]:
        return neat_violations(self)

    def force_evict(self, core_id: int, line: int) -> bool:
        # No subscriptions exist to notify: Neat spinners always poll.
        return self.l1s[core_id].evict_line(line) is not None

    def debug_addr_state(self, addr: int) -> str:
        dirty_at = sorted(
            core_id
            for core_id, dirty in enumerate(self._dirty)
            if addr in dirty
        )
        return (
            f"word {addr}: {self._l1_states(addr)} dirty at={dirty_at} "
            f"(no global tracking)"
        )

    def debug_transients(self) -> list[str]:
        out = []
        for core_id, dirty in enumerate(self._dirty):
            if dirty:
                out.append(
                    f"core {core_id}: {len(dirty)} dirty word(s) awaiting "
                    f"self-downgrade"
                )
        return out

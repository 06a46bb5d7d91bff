"""Shared DeNovo machinery: word-granularity registration protocol.

DeNovo keeps exactly three states per *word* — Invalid, Valid, Registered —
and replaces the sharer-list directory with a *registry*: the LLC data bank
holds either the word's value or a pointer to the core that registered it.
There are no writer-initiated invalidations and no sharer lists; writes
(and, in DeNovoSync0/DeNovoSync, synchronization reads) serialize through
point-to-point registration transfers.  The registry is non-blocking:
unlike the MESI directory there is never a queuing delay at the LLC.

This module implements the *data* access behaviour from the original
DeNovo (PACT'11), which both synchronization protocols inherit:

* data read hit on Valid or Registered; misses fill every word of the line
  available at the LLC (only valid words travel, a big traffic saving);
* data writes register immediately and are non-blocking;
* software self-invalidation instructions drop the Valid words of the
  named regions at acquires, leaving Registered words in place.

Subclasses add the synchronization-access policy (registration of sync
reads; hardware backoff).
"""

from __future__ import annotations

import weakref
from collections.abc import Callable

from repro.mem.l1 import DeNovoL1, DeNovoState
from repro.mem.regions import Region
from repro.noc.messages import MessageClass, data_flits
from repro.protocols.base import Access, CoherenceProtocol, _CONTROL_FLITS
from repro.protocols.invariants import denovo_violations


class DeNovoBaseProtocol(CoherenceProtocol):
    """Data-access behaviour common to DeNovoSync0 and DeNovoSync."""

    name = "DeNovoBase"

    def __init__(self, config, allocator=None):
        super().__init__(config, allocator)
        self.l1s = [
            DeNovoL1(core, config, self.amap, self._make_evict_handler(core))
            for core in range(config.num_cores)
        ]
        if allocator is not None:
            for l1 in self.l1s:
                l1.set_region_lookup(allocator._region_of_addr)
        # word address -> core id currently registered (absent: value at LLC)
        self.registry: dict[int, int] = {}
        # word address -> [(core_id, callback)] spin-waiters asleep on their
        # Registered copy, woken when a remote request steals it.
        self._word_waiters: dict[int, list[tuple[int, Callable[[int], None]]]] = {}
        # word address -> cycle at which the last pending registration
        # transfer completes.  The registry itself never blocks, but
        # concurrent registrations to one word chain through the L1 MSHRs
        # (the paper's "queue distributed among the L1 caches"), so each
        # transfer starts only when its predecessor finishes.
        self._reg_chain: dict[int, int] = {}
        # per-core line -> last data-store registration time, for the
        # store-buffer write-combining model (see _store_aggregates).
        self._store_burst: list[dict[int, int]] = [
            {} for _ in range(config.num_cores)
        ]
        # Hot-path constants (the address math is bound in base.__init__).
        self._chain_link = config.tuning.chain_link_cost
        self._agg_window = config.tuning.store_aggregation_window
        self._l1_hit = config.l1_hit_latency
        self._word_bytes = config.word_bytes
        self._word_flits = data_flits(config.word_bytes)
        self._remote_by_leg = self.mesh._remote_by_leg

    def _make_evict_handler(self, core_id: int):
        # The L1 holds this handler, so it reaches the protocol through a
        # weak proxy: with no reference cycle, a dropped protocol (and its
        # L1 frames) is freed at once instead of waiting for the cycle
        # collector, which keeps peak memory independent of GC timing.
        proto = weakref.proxy(self)

        def on_evict_registered(addr: int, value: int) -> None:
            # A replaced Registered word returns its registration (and value)
            # to the LLC: a word-granularity writeback.
            if proto.registry.get(addr) == core_id:
                del proto.registry[addr]
            bank = proto.amap.home_bank_of_addr(addr)
            proto.record_data(
                MessageClass.WRITEBACK, core_id, bank, proto.config.word_bytes
            )
            proto.counters.bump("writebacks")

        return on_evict_registered

    # -- hooks the DeNovoSync subclass overrides ---------------------------

    def on_registration_stolen(
        self, victim: int, addr: int, by_sync_read: bool
    ) -> None:
        """Called when ``victim`` loses a registration to a remote request."""

    def on_sync_hit(self, core_id: int, addr: int) -> None:
        """Called on a sync read/RMW hit to Registered state."""

    def on_release(self, core_id: int, addr: int) -> None:
        """Called when a release (to sync variable ``addr``) completes."""

    # -- data loads ----------------------------------------------------------

    def load(
        self,
        core_id: int,
        addr: int,
        sync: bool = False,
        ticketed: bool = False,
        acquire: bool = False,
    ) -> Access:
        if sync:
            access = self.sync_load(core_id, addr)
            if acquire:
                self.on_acquire(core_id, addr)
            return access
        l1 = self.l1s[core_id]
        value = l1.present_value(addr)
        if value is not None:
            self._counts["l1_hits"] += 1
            return Access(value, self._l1_hit, True)

        self._counts["l1_misses"] += 1
        line = addr // self._wpl
        bank = line % self._nbanks
        owner = self.registry.get(addr)
        self.record_control(MessageClass.LOAD, core_id, bank)

        if owner is not None and owner != core_id:
            # The word is registered at a remote L1: three-hop fetch.  The
            # owner stays Registered (reads do not revoke) and its response
            # carries every word of the line it has registered — DeNovo
            # transfers lines but only their valid words.
            latency = self.mesh.remote_l1_latency(core_id, bank, owner)
            self.record_control(MessageClass.LOAD, bank, owner)
            filled = self._fill_line_valid_words(
                core_id, line, from_owner=owner
            )
            self.record_data(
                MessageClass.LOAD, owner, core_id, self._word_bytes * filled
            )
            value = self._mem_get(addr, 0)
            return Access(value, latency, False)

        latency, cold = self.llc_fetch_latency(core_id, line)
        if cold:
            self.record_memory_fill(MessageClass.LOAD, line)
        filled = self._fill_line_valid_words(core_id, line, from_owner=None)
        self.record_data(
            MessageClass.LOAD, bank, core_id, self._word_bytes * filled
        )
        value = self._mem_get(addr, 0)
        return Access(value, latency, False)

    def _fill_line_valid_words(
        self, core_id: int, line: int, from_owner: int | None
    ) -> int:
        """Fill the words of ``line`` the responder can supply; return count.

        With ``from_owner`` None the responder is the LLC, which has every
        word not registered at a remote core.  Otherwise the responder is
        the L1 that has the requested word registered, which supplies every
        word of the line *it* has registered.  Words already present
        locally are left alone (only Invalid words fill, as Valid).
        """
        registry = self.registry
        words = self.amap.words_of_line(line)
        if from_owner is None:
            # At the LLC: unregistered, or registered to the requester.
            available = [w for w in words if registry.get(w, core_id) == core_id]
        else:
            available = [w for w in words if registry.get(w) == from_owner]
        return self.l1s[core_id].fill_line_valid(line, available, self._mem_values)

    # -- data stores --------------------------------------------------------

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
        ticketed: bool = False,
    ) -> Access:
        if sync:
            return self.sync_store(core_id, addr, value, release)
        l1 = self.l1s[core_id]
        old = self._mem_get(addr, 0)
        if l1.try_write_registered(addr, value):
            self._counts["l1_hits"] += 1
            self._mem_values[addr] = value
            return Access(old, self._l1_hit, True)

        # Immediate transition to Registered, registration request in the
        # background: data writes never block the core.
        self._counts["l1_misses"] += 1
        if self._store_aggregates(core_id, addr):
            # Write-combining: the registration piggybacks on the line's
            # in-flight registration message (a wider word mask), so it
            # adds no traffic.  Only possible when no remote owner must be
            # downgraded.
            self.registry[addr] = core_id
            self._counts["aggregated_store_registrations"] += 1
        else:
            self._register(core_id, addr, MessageClass.STORE, invalidate_prev=True)
        l1.fill_word(addr, value, DeNovoState.REGISTERED)
        self._mem_values[addr] = value
        return Access(old, self._l1_hit, False)

    def _store_aggregates(self, core_id: int, addr: int) -> bool:
        """True when this data-store registration can ride along a recent
        registration message for the same line (no remote owner involved).

        DeNovo aggregates stores per line in the store buffer, issuing one
        registration with a word mask instead of one message per word —
        without it a streaming writer would pay 16x MESI's message count.
        Word granularity is preserved: a word owned by another core always
        takes the full point-to-point transfer path.
        """
        owner = self.registry.get(addr)
        if owner is not None and owner != core_id:
            return False
        line = addr // self._wpl
        window = self._store_burst[core_id]
        last = window.get(line)
        window[line] = self.now
        if len(window) > 64:  # keep the tracking structure small
            cutoff = self.now - self._agg_window
            for stale in [ln for ln, t in window.items() if t < cutoff]:
                del window[stale]
        return last is not None and self.now - last <= self._agg_window

    def _register(
        self,
        core_id: int,
        addr: int,
        klass: MessageClass,
        invalidate_prev: bool,
        carry_data_back: bool = False,
    ) -> int:
        """Move ``addr``'s registration to ``core_id``; returns the latency.

        ``invalidate_prev`` selects the previous registrant's downgrade
        target: Invalid for writes, Valid for sync reads (the Valid copy
        is unusable but arms the backoff trigger).
        ``carry_data_back`` adds a word of payload on the response (sync
        reads need the value; writes overwrite it anyway).
        """
        line = addr // self._wpl
        bank = line % self._nbanks
        prev = self.registry.get(addr)
        # Traffic recording is inlined with locals bound once: a
        # registration sends two or three messages and this is the
        # hottest path in the DeNovo family.
        idx = klass.idx
        tflits = self._tflits
        tmsgs = self._tmsgs
        hf = self._hops_flat
        n = self._ntiles
        tflits[idx] += _CONTROL_FLITS * hf[core_id * n + bank]
        tmsgs[idx] += 1
        self._counts["registration_transfers"] += 1

        # Concurrent registrations of one word chain through the L1 MSHRs
        # (the paper's "queue distributed among the L1 caches").  The chain
        # is pipelined: a queued request is serviced the moment its
        # predecessor's ack lands, so each link costs only the predecessor-
        # to-requester forward, while an unqueued request pays the normal
        # transfer latency.  A link costs the same on every leg: the network
        # legs of consecutive forwards overlap, so only the L1's servicing
        # of its stored request (the MSHR processing) serializes.
        chain_end = self._reg_chain.get(addr, 0)
        link = self._chain_link
        if prev is not None and prev != core_id:
            a = hf[core_id * n + bank]
            b = hf[bank * n + prev]
            transfer = self._remote_by_leg[a if a > b else b]
            tflits[idx] += _CONTROL_FLITS * b
            tmsgs[idx] += 1
            if carry_data_back:
                tflits[idx] += self._word_flits * hf[prev * n + core_id]
            else:
                tflits[idx] += _CONTROL_FLITS * hf[prev * n + core_id]
            tmsgs[idx] += 1
            target = DeNovoState.INVALID if invalidate_prev else DeNovoState.VALID
            self.l1s[prev].downgrade(addr, target)
            self.on_registration_stolen(prev, addr, not invalidate_prev)
        else:
            transfer, cold = self.llc_fetch_latency(core_id, line)
            if cold:
                self.record_memory_fill(klass, line)
            if carry_data_back:
                tflits[idx] += self._word_flits * hf[bank * n + core_id]
            else:
                tflits[idx] += _CONTROL_FLITS * hf[bank * n + core_id]
            tmsgs[idx] += 1

        arrival = self.now + transfer
        completion = chain_end + link
        if completion > arrival:
            self._counts["registration_chain_waits"] += 1
        else:
            completion = arrival
        latency = completion - self.now
        if prev is not None and prev != core_id:
            self._notify_word_waiters(addr, prev, completion)
        self.registry[addr] = core_id
        self._reg_chain[addr] = completion
        return latency

    # -- synchronization accesses: defined by subclasses ----------------------

    def sync_load(self, core_id: int, addr: int) -> Access:
        raise NotImplementedError

    def sync_store(
        self, core_id: int, addr: int, value: int, release: bool = False
    ) -> Access:
        raise NotImplementedError

    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
        ticketed: bool = False,
        acquire: bool = False,
    ) -> Access:
        raise NotImplementedError

    # -- spin-wait subscriptions ---------------------------------------------------

    def subscribe_line_change(
        self, core_id: int, addr: int, callback: Callable[[int], None]
    ) -> bool:
        """Sleep on a Registered word; woken when the registration is stolen.

        A Registered spinner hits locally every cycle until a remote write
        or sync read takes the registration away, so the steal is the only
        event that can change what it observes.  Any other state means each
        re-read is a real miss and the caller must poll.
        """
        if self.l1s[core_id].state_of(addr, touch=False) is not DeNovoState.REGISTERED:
            return False
        self._word_waiters.setdefault(addr, []).append((core_id, callback))
        return True

    def _notify_word_waiters(self, addr: int, core_id: int, wake_time: int) -> None:
        waiters = self._word_waiters.get(addr)
        if not waiters:
            return
        remaining = []
        for waiter_core, callback in waiters:
            if waiter_core == core_id:
                callback(wake_time)
            else:
                remaining.append((waiter_core, callback))
        if remaining:
            self._word_waiters[addr] = remaining
        else:
            del self._word_waiters[addr]

    # -- self-invalidation -------------------------------------------------------

    def self_invalidate(
        self, core_id: int, regions: list[Region], flush_all: bool = False
    ) -> int:
        """Flash-invalidate the Valid words of ``regions`` in this core's L1.

        ``flush_all`` drops every Valid word regardless of region — the
        always-correct fallback when the program supplies no region
        information (paper section 3).  Registered words stay either way.
        """
        l1 = self.l1s[core_id]
        if flush_all:
            dropped = l1.self_invalidate_all()
        else:
            dropped = 0
            for region in regions:
                dropped += l1.self_invalidate_region(region.region_id)
        self.counters.bump("self_invalidated_words", dropped)
        return self.config.tuning.self_invalidate_latency

    # -- runtime invariants & diagnostics -------------------------------------

    def invariant_violations(self) -> list[str]:
        return denovo_violations(self)

    def force_evict(self, core_id: int, line: int) -> bool:
        """Evict the whole frame of ``line`` from ``core_id``'s L1 as
        replacement would: Registered words write their registration back
        to the LLC, and any spin-waiter asleep on one of them is woken
        (its local copy is gone, so only a re-probe can observe change)."""
        frame = self.l1s[core_id].evict_line(line)
        if frame is None:
            return False
        for off in frame.registered_offsets():
            addr = self.amap.line_base(line) + off
            self._notify_word_waiters(addr, core_id, self.now)
        return True

    def debug_resident_lines(self, core_id: int) -> list[int]:
        return self.l1s[core_id].resident_lines()

    def debug_addr_state(self, addr: int) -> str:
        owner = self.registry.get(addr)
        copies = {
            core_id: l1.state_of(addr, touch=False).value
            for core_id, l1 in enumerate(self.l1s)
            if l1.state_of(addr, touch=False) is not DeNovoState.INVALID
        }
        waiters = sorted(core for core, _ in self._word_waiters.get(addr, []))
        chain = self._reg_chain.get(addr, 0)
        return (
            f"word {addr}: registry owner={owner} L1 states={copies or '{}'} "
            f"reg-chain end={chain} subscribed waiters={waiters}"
        )

    def debug_transients(self) -> list[str]:
        out = []
        for addr, end in sorted(self._reg_chain.items()):
            if end > self.now:
                out.append(
                    f"word {addr}: registration chain busy until cycle "
                    f"{end} (owner={self.registry.get(addr)})"
                )
        for addr, waiters in sorted(self._word_waiters.items()):
            cores = sorted(core for core, _ in waiters)
            out.append(
                f"word {addr}: cores {cores} sleeping on registration steal"
            )
        return out

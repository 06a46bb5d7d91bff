"""DeNovoSync0: registration of all synchronization reads (paper §4.1).

The protocol treats a synchronization read like a read-modify-write: it
must register at the LLC, and only one reader can be registered at a time
(the single-reader constraint).  Together with DeNovo's single-writer
registration this gives write propagation, write atomicity and write
serialization — sequential consistency for racy synchronization accesses —
without writer-initiated invalidations, sharer lists, or new protocol
states.

Consequences modelled here, straight from the paper:

* a sync read hits only in Registered state; Valid is "not a usable valid
  copy" and misses again (write propagation via reader re-fetch);
* a sync read miss steals the registration from the previous registrant,
  which downgrades Registered -> Valid (a false R-R/W-R race when the value
  had not changed — the source of DeNovoSync0's pre-linearization cost);
* a sync write/RMW miss steals the registration and the previous
  registrant invalidates its copy;
* registrations transfer point-to-point via the non-blocking registry.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mem.l1 import DeNovoState
from repro.noc.messages import MessageClass
from repro.protocols.base import Access
from repro.protocols.denovo_base import DeNovoBaseProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    name="DeNovoSync0",
    label="DS0",
    paper="DeNovoSync w/o backoff (ASPLOS'15 §4)",
    summary=(
        "Word-granularity LLC registry, reader self-invalidation at "
        "acquires, sync reads register with no retry backoff."
    ),
    tracking="registry",
    invalidation="self",
    requires_annotations=True,
    default_comparison=True,
    formal_model="denovosync0",
)
class DeNovoSync0Protocol(DeNovoBaseProtocol):
    name = "DeNovoSync0"

    # -- sync loads -----------------------------------------------------------

    def sync_load(self, core_id: int, addr: int) -> Access:
        # Quiescence declaration (spin leases): DeNovoSync polls are
        # never leasable — a failed poll either hits a Registered copy
        # (touches L1 LRU) or re-registers the word at the directory,
        # stealing from the previous registrant (PAPER.md section 4).
        # Both mutate cross-core-visible state, so spin_poll_lease stays
        # the base None and every poll is simulated in full.
        l1 = self.l1s[core_id]
        counts = self._counts
        value = l1.registered_value(addr)
        if value is not None:
            counts["l1_hits"] += 1
            counts["sync_read_hits"] += 1
            self.on_sync_hit(core_id, addr)
            return Access(value, self._l1_hit, True)

        counts["l1_misses"] += 1
        counts["sync_read_misses"] += 1
        owner = self.registry.get(addr)
        if owner is not None and owner != core_id:
            counts["read_registration_steals"] += 1
        latency = self._register(
            core_id,
            addr,
            MessageClass.SYNCH,
            invalidate_prev=False,  # sync reads downgrade the victim to Valid
            carry_data_back=True,
        )
        value = self._mem_get(addr, 0)
        l1.fill_word(addr, value, DeNovoState.REGISTERED)
        return Access(value, latency, False)

    # -- sync stores -------------------------------------------------------------

    def sync_store(
        self, core_id: int, addr: int, value: int, release: bool = False
    ) -> Access:
        l1 = self.l1s[core_id]
        old = self._mem_get(addr, 0)
        if l1.try_write_registered(addr, value):
            self._counts["l1_hits"] += 1
            self._mem_values[addr] = value
            if release:
                self.on_release(core_id, addr)
            return Access(old, self._l1_hit, True)

        self._counts["l1_misses"] += 1
        latency = self._register(
            core_id, addr, MessageClass.SYNCH, invalidate_prev=True
        )
        l1.fill_word(addr, value, DeNovoState.REGISTERED)
        self._mem_values[addr] = value
        if release:
            self.on_release(core_id, addr)
        return Access(old, latency, False)

    # -- RMWs ---------------------------------------------------------------------

    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
        ticketed: bool = False,
        acquire: bool = False,
    ) -> Access:
        l1 = self.l1s[core_id]
        if l1.state_of(addr) is DeNovoState.REGISTERED:
            self._counts["l1_hits"] += 1
            latency = self._l1_hit
            hit = True
            self.on_sync_hit(core_id, addr)
        else:
            self._counts["l1_misses"] += 1
            latency = self._register(
                core_id,
                addr,
                MessageClass.SYNCH,
                invalidate_prev=True,
                carry_data_back=True,
            )
            hit = False
        old = self._mem_get(addr, 0)
        new = fn(old)
        written = old if new is None else new
        l1.fill_word(addr, written, DeNovoState.REGISTERED)
        if new is not None:
            self._mem_values[addr] = new
        if release:
            self.on_release(core_id, addr)
        if acquire:
            self.on_acquire(core_id, addr)
        self._counts["rmws"] += 1
        return Access(old, latency, hit)

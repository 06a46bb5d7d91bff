"""DeNovoSync: DeNovoSync0 plus adaptive hardware backoff (paper §4.2).

Identical protocol states and transitions to DeNovoSync0; the only change
is on the requester side: a synchronization *read* to a word in Valid
state consults the core's backoff counter and stalls that many cycles
before issuing its registration miss.  Valid state is reached exactly when
a remote sync read stole this core's registration, so the stall kicks in
precisely under read-sharing contention — the ping-pong scenario where
DeNovoSync0 wastes misses.  Synchronization writes are never delayed.

The counter update rules live in :mod:`repro.protocols.backoff`.
"""

from __future__ import annotations

from repro.mem.l1 import VALID
from repro.protocols.backoff import BackoffState
from repro.protocols.denovosync0 import DeNovoSync0Protocol
from repro.protocols.registry import register_protocol


@register_protocol(
    name="DeNovoSync",
    label="DS",
    paper="DeNovoSync (ASPLOS'15 §5)",
    summary=(
        "DeNovoSync0 plus adaptive per-(core, word) hardware backoff "
        "on failed sync reads; the paper's headline design."
    ),
    tracking="registry",
    invalidation="self",
    backoff="adaptive",
    requires_annotations=True,
    default_comparison=True,
    app_comparison=True,
    # Same states and transitions as DeNovoSync0: the backoff hooks only
    # add stall cycles, so DeNovoSync0's model covers this protocol.
    formal_model="denovosync0",
)
class DeNovoSyncProtocol(DeNovoSync0Protocol):
    name = "DeNovoSync"

    def __init__(self, config, allocator=None):
        super().__init__(config, allocator)
        self.backoff_states = [
            BackoffState(config.backoff) for _ in range(config.num_cores)
        ]

    def sync_read_backoff(
        self, core_id: int, addr: int, spinning: bool = False
    ) -> int:
        """Stall to insert before a sync read (cores query this first).

        Only reads to Valid state back off: Valid marks a word whose
        registration was stolen by a remote sync read, i.e. observed
        contention.  Initial reads (Invalid) and hits (Registered) issue
        immediately.

        Quiescence declaration (spin leases): this per-poll backoff state
        advance is itself a mutation, so on top of DeNovoSync0's
        registration steals it makes DeNovoSync polls doubly
        un-leasable; cores also disable leasing outright for any
        backoff-capable protocol.
        """
        if self.l1s[core_id].state_of(addr, touch=False) is not VALID:
            return 0
        stall = self.backoff_states[core_id].stall_cycles(spinning=spinning)
        if stall > 0:
            self.counters.bump("hw_backoff_events")
        return stall

    # -- hook overrides wiring the counters in ------------------------------

    def on_registration_stolen(self, victim: int, addr: int, by_sync_read: bool) -> None:
        if by_sync_read:
            self.backoff_states[victim].on_incoming_sync_read_steal()

    def on_sync_hit(self, core_id: int, addr: int) -> None:
        self.backoff_states[core_id].on_registered_hit()

    def on_release(self, core_id: int, addr: int) -> None:
        self.backoff_states[core_id].on_release()

"""SynCron-style dedicated synchronization engines at the LLC banks.

Models the SynCron design point (Giannoula et al., arXiv:2101.07557,
re-targeted from near-memory processing to this work's tiled CMP): the
*data* path rides the DeNovo data protocol unchanged (word-granularity
registry, self-invalidation at acquires), but every synchronization
operation — WaitLoad, sync Store, Cas, Fai, Swap — bypasses the L1
entirely and executes at a per-bank **sync unit** (SU), the hardware
unit SynCron places next to each memory controller:

* sync variables are never cached: their single architectural copy
  lives at the home bank, so there is nothing to invalidate, steal, or
  back off from;
* each SU serializes its operations (``tuning.sync_unit_occupancy``
  busy cycles per op) — contended sync ops queue at the bank rather
  than ping-ponging registrations between L1s;
* each SU indexes its variables through a bounded buffer
  (``tuning.sync_unit_entries``); inserting into a full buffer evicts
  the least-recently-used entry to memory — SynCron's overflow
  fallback — charging a memory round trip and controller traffic;
* spinners do not poll: the SU parks them (SynCron holds waiting
  requests at the engine) and wakes every parked core when the word's
  value changes.

One interaction needs care: the inherited DeNovo data path may have
*data-registered* a word that is later used for synchronization (or a
fault plan may perturb one).  The SU then first **recalls** the
registration — the owner is downgraded to Invalid and the word's value
returns to the LLC — so the bank again holds the unique up-to-date
copy before operating on it.  This keeps the registry invariant (the
registry always points at the up-to-date copy) intact.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.mem.l1 import INVALID
from repro.noc.messages import SYNCH, WRITEBACK
from repro.protocols.denovo_base import DeNovoBaseProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    name="SynCron",
    label="SynC",
    paper="SynCron (arXiv:2101.07557)",
    summary=(
        "DeNovo data path plus per-bank synchronization units: sync "
        "ops bypass the L1, serialize at the home bank's SU (bounded "
        "buffer, memory-overflow fallback), and parked spinners are "
        "woken on value change."
    ),
    tracking="registry",
    invalidation="self",
    requires_annotations=True,
    default_comparison=True,
    app_comparison=True,
)
class SynCronProtocol(DeNovoBaseProtocol):
    name = "SynCron"

    def __init__(self, config, allocator=None):
        super().__init__(config, allocator)
        n = config.num_cores
        #: Per-bank cycle until which the sync unit is busy.
        self._su_busy = [0] * n
        #: Per-bank LRU over the sync variables the SU currently indexes.
        self._su_buffer: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(n)
        ]
        self._su_occupancy = config.tuning.sync_unit_occupancy
        self._su_entries = config.tuning.sync_unit_entries
        #: word address -> [(core_id, callback)] spinners parked at the
        #: word's SU, all woken when its value changes.
        self._su_waiters: dict[int, list[tuple[int, Callable[[int], None]]]] = {}

    # -- the sync unit -------------------------------------------------------

    def _su_op(self, core_id: int, addr: int, carry_data: bool) -> int:
        """Execute one sync op at ``addr``'s home-bank sync unit; returns
        its latency.  The architectural value itself is read/written by
        the caller through ``_mem_values``."""
        line = addr // self._wpl
        bank = line % self._nbanks
        counts = self._counts
        counts["l1_misses"] += 1
        counts["sync_unit_ops"] += 1
        extra = self._recall_registration(core_id, addr, bank)

        # Serialization: the SU services one op per occupancy window, so
        # a contended word queues at the bank instead of bouncing between
        # L1s.
        busy = self._su_busy[bank]
        wait = busy - self.now if busy > self.now else 0
        if wait:
            counts["sync_unit_queue_waits"] += 1

        buf = self._su_buffer[bank]
        if addr in buf:
            buf.move_to_end(addr)
            transfer = self._l2_flat[core_id * self._ntiles + bank]
        else:
            transfer = self.llc_fetch_latency(core_id, line, SYNCH)
            if len(buf) >= self._su_entries:
                # Bounded buffer full: spill the LRU entry to memory
                # (SynCron's overflow fallback) before indexing this one.
                buf.popitem(last=False)
                counts["sync_unit_overflows"] += 1
                transfer += self._memlat_flat[bank * self._ntiles + bank]
                controller = self.mesh.nearest_controller(bank)
                self.record_control(WRITEBACK, bank, controller)
            buf[addr] = True

        self._su_busy[bank] = self.now + wait + self._su_occupancy
        self.record_control(SYNCH, core_id, bank)
        if carry_data:
            self.record_data(SYNCH, bank, core_id, self._word_bytes)
        else:
            self.record_control(SYNCH, bank, core_id)
        return wait + transfer + extra

    def _recall_registration(self, core_id: int, addr: int, bank: int) -> int:
        """If the data path registered ``addr`` at some L1, pull the
        registration (and value) back to the LLC so the bank holds the
        unique up-to-date copy; returns the added latency."""
        owner = self.registry.pop(addr, None)
        if owner is None:
            return 0
        self.record_control(SYNCH, bank, owner)
        self.record_data(WRITEBACK, owner, bank, self._word_bytes)
        self.l1s[owner].downgrade(addr, INVALID)
        # A spinner asleep on its (now gone) Registered copy re-probes.
        self._wake(addr, owner, self.now)
        self._counts["sync_unit_recalls"] += 1
        # The recall adds the bank->owner->bank detour beyond the plain
        # core<->bank trip the caller already pays.
        round_trip = self.mesh.remote_l1_latency(core_id, bank, owner)
        direct = self._l2_flat[core_id * self._ntiles + bank]
        return round_trip - direct if round_trip > direct else 0

    def _notify_su_waiters(self, addr: int, wake_time: int) -> None:
        waiters = self._su_waiters.pop(addr, None)
        if not waiters:
            return
        for _waiter_core, callback in waiters:
            callback(wake_time)

    # -- synchronization accesses --------------------------------------------

    def sync_load(self, core_id: int, addr: int) -> tuple:
        self._counts["sync_read_misses"] += 1
        latency = self._su_op(core_id, addr, carry_data=True)
        return (self._mem_get(addr, 0), latency, False, False)

    def sync_store(
        self, core_id: int, addr: int, value: int, release: bool = False
    ) -> tuple:
        old = self._mem_get(addr, 0)
        latency = self._su_op(core_id, addr, carry_data=False)
        self._mem_values[addr] = value
        if value != old:
            self._notify_su_waiters(addr, self.now + latency)
        return (old, latency, False, False)

    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
    ) -> tuple:
        latency = self._su_op(core_id, addr, carry_data=True)
        old = self._mem_get(addr, 0)
        new = fn(old)
        if new is not None:
            self._mem_values[addr] = new
            if new != old:
                self._notify_su_waiters(addr, self.now + latency)
        self._counts["rmws"] += 1
        return (old, latency, False, False)

    # -- data stores also wake parked spinners -------------------------------

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
    ) -> tuple:
        if sync:
            return self.sync_store(core_id, addr, value, release)
        old = self._mem_get(addr, 0)
        access = super().store(core_id, addr, value)
        # A spinner may be parked at the SU on a word the program then
        # publishes with a plain data write (chaos perturbations can
        # reorder things this way); the SU observes the home bank, so the
        # value change wakes it.
        if value != old and addr in self._su_waiters:
            self._notify_su_waiters(addr, self.now + access[1])  # its latency
        return access

    # -- spin-wait subscriptions ---------------------------------------------

    def subscribe_line_change(
        self, core_id: int, addr: int, callback: Callable[[int], None]
    ) -> bool:
        # A data-Registered copy still wakes on steal (inherited); any
        # other spinner parks at the word's sync unit and is woken when
        # the value changes — SynCron holds waiting requests at the
        # engine instead of letting cores poll.  That is also its spin
        # lease quiescence declaration: with no poll stream there is
        # nothing to lease (spin_poll_lease stays the base None).  A
        # parked core sits in _su_waiters, not the base _waiters list,
        # because every value change wakes all of them at once.
        if super().subscribe_line_change(core_id, addr, callback):
            return True
        self._su_waiters.setdefault(addr, []).append((core_id, callback))
        self._counts["sync_unit_parked"] += 1
        return True

    # -- diagnostics ---------------------------------------------------------

    def debug_addr_state(self, addr: int) -> str:
        base = super().debug_addr_state(addr)
        bank = self.amap.home_bank_of_addr(addr)
        parked = sorted(core for core, _ in self._su_waiters.get(addr, []))
        return (
            f"{base} SU[{bank}] indexed={addr in self._su_buffer[bank]} "
            f"parked={parked}"
        )

    def debug_transients(self) -> list[str]:
        out = super().debug_transients()
        for bank, busy in enumerate(self._su_busy):
            if busy > self.now:
                out.append(f"sync unit {bank}: busy until cycle {busy}")
        for addr, waiters in sorted(self._su_waiters.items()):
            cores = sorted(core for core, _ in waiters)
            out.append(f"word {addr}: cores {cores} parked at the sync unit")
        return out

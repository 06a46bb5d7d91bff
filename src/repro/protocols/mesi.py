"""MESI directory protocol (the paper's baseline).

Line-granularity invalidation protocol with a full sharer list per line at
the home LLC bank and a *blocking* directory: a transaction that involves a
third party (invalidation collection or an owner forward) occupies the
directory entry until it completes, and later requests to the same line
queue behind it.  Writer-initiated invalidations put the farthest-sharer
round trip on the write/upgrade critical path — the linearization-cost
effect the paper analyzes for TATAS locks and non-blocking CAS loops.

Data stores are non-blocking (the paper modified GEMS MESI the same way
for a fair comparison with DeNovo); RMWs and synchronization stores block.

Spinning readers hit on their Shared copy at zero network cost; the
:meth:`subscribe_line_change` hook lets a simulated core sleep on its
cached copy and be woken by the invalidation, which models spin loops
without simulating every 1-cycle hit as a separate event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.mem.l1 import EXCLUSIVE, MODIFIED, SHARED, MesiL1, MesiState
from repro.mem.regions import Region
from repro.noc.messages import INVALIDATION, LOAD, STORE, WRITEBACK
from repro.protocols.base import CoherenceProtocol
from repro.protocols.invariants import mesi_violations
from repro.protocols.registry import register_protocol


@dataclass
class DirectoryEntry:
    """Home-bank state for one line: sharer list and busy window."""

    exclusive_owner: int | None = None  # core holding the line in E or M
    sharers: set[int] = field(default_factory=set)
    busy_until: int = 0


@register_protocol(
    name="MESI",
    label="M",
    paper="baseline MESI directory (DeNovoSync §2)",
    summary=(
        "Blocking line-granularity directory with writer-initiated "
        "invalidations; the paper's hardware baseline."
    ),
    tracking="directory",
    invalidation="writer",
    default_comparison=True,
    app_comparison=True,
    formal_model="mesi",
)
class MesiProtocol(CoherenceProtocol):
    name = "MESI"

    def __init__(self, config, allocator=None):
        super().__init__(config, allocator)
        self.l1s = [MesiL1(core, config) for core in range(config.num_cores)]
        self._directory: dict[int, DirectoryEntry] = {}
        # core -> the directory entry it holds a reservation on (None: no
        # reservation).  A core holds at most one: it took it with a
        # retry, and its next access is the re-issue that consumes it.
        self._reserved: list[DirectoryEntry | None] = [None] * config.num_cores
        # Hot-path constants and tables, bound once (see base.__init__):
        # per-operation code inlines the config lookups.
        self._l1_hit = config.l1_hit_latency
        self._line_bytes = config.line_bytes
        self._own_occ = config.tuning.ownership_occupancy
        self._bank_occ = config.tuning.bank_occupancy

    # -- helpers ----------------------------------------------------------

    def _entry(self, line: int) -> DirectoryEntry:
        entry = self._directory.get(line)
        if entry is None:
            entry = DirectoryEntry()
            self._directory[line] = entry
        return entry

    def _reserve_or_retry(self, entry: DirectoryEntry, core_id: int) -> tuple | None:
        """Blocking-directory admission control.

        A request arriving while the entry is busy takes a FIFO reservation
        (the busy window is extended by a nominal service slot, and the
        directory records the requester) and is told to retry at its
        reserved time; the re-issued request finds its reservation and is
        serviced unconditionally.  This bounds a request's wait to the
        queue length at its arrival and services the line in arrival
        order, like a real blocking directory's message queue — and
        resolves the value at service time, not arrival time.

        The reservation is always consumed by the re-issue: an in-order
        core's next access after a retry re-issues the same op to the
        same line, and that re-issue misses again (only the core's own
        fills add a line to its L1), so it comes back here.
        """
        reserved = self._reserved
        if reserved[core_id] is entry:
            reserved[core_id] = None
            return None
        queue = entry.busy_until - self.now
        if queue <= 0:
            return None
        self._counts["directory_retries"] += 1
        entry.busy_until += self._own_occ
        reserved[core_id] = entry
        return (0, queue, False, True)

    def _insert_line(self, core_id: int, line: int, state: MesiState) -> None:
        """Fill ``line`` into the L1, handling any replacement victim."""
        victim = self.l1s[core_id].insert(line, state)
        if victim is not None:
            self._handle_victim(core_id, *victim)

    def _handle_victim(self, core_id: int, vline: int, vstate: MesiState) -> None:
        """Directory bookkeeping for a line evicted from ``core_id``'s L1."""
        ventry = self._entry(vline)
        bank = self.amap.home_bank(vline)
        if vstate is MODIFIED:
            self.record_data(WRITEBACK, core_id, bank, self._line_bytes)
            self._counts["writebacks"] += 1
            ventry.exclusive_owner = None
        elif vstate is EXCLUSIVE:
            ventry.exclusive_owner = None
        else:
            ventry.sharers.discard(core_id)
        # The victim's copy is gone, so a future writer's invalidation will
        # never reach this core: wake any spin-waiter subscribed to the
        # victim now (it re-probes and misses), else it sleeps forever.
        self._wake(vline, core_id, self.now)

    def _invalidate_sharer(self, line: int, sharer: int, notify_time: int) -> None:
        """Drop ``sharer``'s copy and wake any spin-waiters it had on it."""
        old = self.l1s[sharer].invalidate(line)
        if old is not None:
            self._wake(line, sharer, notify_time)

    # -- loads ------------------------------------------------------------

    def load(self, core_id: int, addr: int, sync: bool = False) -> tuple:
        line = addr // self._wpl
        state = self.l1s[core_id].state_of(line)
        if state is not None:
            self._counts["l1_hits"] += 1
            return (self._mem_get(addr, 0), self._l1_hit, True, False)

        self._counts["l1_misses"] += 1
        entry = self._entry(line)
        bank = line % self._nbanks
        retry = self._reserve_or_retry(entry, core_id)
        if retry is not None:
            return retry
        self.record_control(LOAD, core_id, bank)

        owner = entry.exclusive_owner
        if owner is not None and owner != core_id:
            # Forward to the exclusive owner; it downgrades to Shared and the
            # dirty line is written back to the LLC.
            latency = self.mesh.remote_l1_latency(core_id, bank, owner)
            owner_state = self.l1s[owner].state_of(line, touch=False)
            if owner_state is None:
                # The owner silently lost the line to replacement before the
                # directory heard about it; fall back to an LLC fetch.
                entry.exclusive_owner = None
                return self._load_from_llc(core_id, line, addr, entry, bank)
            self.l1s[owner].set_state(line, SHARED)
            if owner_state is MODIFIED:
                self.record_data(WRITEBACK, owner, bank, self._line_bytes)
                self._counts["writebacks"] += 1
            self.record_control(LOAD, bank, owner)
            self.record_data(LOAD, owner, core_id, self._line_bytes)
            entry.exclusive_owner = None
            entry.sharers.update({owner, core_id})
            # Ownership transfers hold the entry only for the protocol-race
            # window; the unblock round trip is tracked in an MSHR.
            entry.busy_until = max(
                entry.busy_until,
                self.now + self._own_occ,
            )
            self._insert_line(core_id, line, SHARED)
            return (self._mem_get(addr, 0), latency, False, False)

        return self._load_from_llc(core_id, line, addr, entry, bank)

    def _load_from_llc(
        self, core_id: int, line: int, addr: int, entry: DirectoryEntry, bank: int
    ) -> tuple:
        latency = self.llc_fetch_latency(core_id, line, LOAD)
        self.record_data(LOAD, bank, core_id, self._line_bytes)
        if not entry.sharers and entry.exclusive_owner is None:
            # Exclusive-clean grant: a later write by this core is silent.
            entry.exclusive_owner = core_id
            self._insert_line(core_id, line, EXCLUSIVE)
        else:
            entry.sharers.add(core_id)
            self._insert_line(core_id, line, SHARED)
        entry.busy_until = max(entry.busy_until, self.now + self._bank_occ)
        return (self._mem_get(addr, 0), latency, False, False)

    # -- stores and RMWs ------------------------------------------------------

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
    ) -> tuple:
        access = self._obtain_modified(core_id, addr)
        _, latency, hit, retry = access
        if retry:
            return access
        old = self._mem_get(addr, 0)
        self._mem_values[addr] = value
        if not sync:
            # Non-blocking data store: the core retires it in one cycle.
            latency = self._l1_hit
        return (old, latency, hit, False)

    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
    ) -> tuple:
        access = self._obtain_modified(core_id, addr)
        _, latency, hit, retry = access
        if retry:
            return access
        old = self._mem_get(addr, 0)
        new = fn(old)
        if new is not None:
            self._mem_values[addr] = new
        self._counts["rmws"] += 1
        return (old, latency, hit, False)

    def _obtain_modified(self, core_id: int, addr: int) -> tuple:
        """Bring ``addr``'s line to Modified.

        The returned result's value is unset (0): the caller reads the
        word itself and returns its own result."""
        line = addr // self._wpl
        l1 = self.l1s[core_id]
        state = l1.state_of(line)
        if state is MODIFIED:
            self._counts["l1_hits"] += 1
            return (0, self._l1_hit, True, False)
        if state is EXCLUSIVE:
            # Silent E -> M upgrade.
            self._counts["l1_hits"] += 1
            l1.set_state(line, MODIFIED)
            return (0, self._l1_hit, True, False)

        self._counts["l1_misses"] += 1
        entry = self._entry(line)
        bank = line % self._nbanks
        retry = self._reserve_or_retry(entry, core_id)
        if retry is not None:
            return retry
        self.record_control(STORE, core_id, bank)

        latency = 0
        owner = entry.exclusive_owner
        if owner is not None and owner != core_id:
            owner_state = self.l1s[owner].state_of(line, touch=False)
            if owner_state is None:
                entry.exclusive_owner = None
                latency += self.llc_fetch_latency(core_id, line, STORE)
                self.record_data(STORE, bank, core_id, self._line_bytes)
            else:
                latency += self.mesh.remote_l1_latency(core_id, bank, owner)
                if owner_state is MODIFIED:
                    self.record_data(WRITEBACK, owner, bank, self._line_bytes)
                    self._counts["writebacks"] += 1
                self.record_control(INVALIDATION, bank, owner)
                self.record_data(STORE, owner, core_id, self._line_bytes)
                self._invalidate_sharer(line, owner, self.now + latency)
                self._counts["invalidations_sent"] += 1
        else:
            targets = entry.sharers - {core_id}
            if state is SHARED:
                # Upgrade: no data transfer needed, just the directory visit.
                latency += self._l2_flat[core_id * self._ntiles + bank]
            else:
                latency += self.llc_fetch_latency(core_id, line, STORE)
                self.record_data(STORE, bank, core_id, self._line_bytes)
            if targets:
                # Writer-initiated invalidations: the write completes only
                # once the farthest ack arrives (write atomicity), but ack
                # collection happens at the requester and overlaps the data
                # response, which is dispatched at roughly half the fetch
                # round trip.
                inv_rtt = max(
                    self.mesh.invalidation_round_trip(bank, t) for t in targets
                )
                latency = max(latency, latency // 2 + inv_rtt)
                # Pin the fan-out order: set iteration order would leak
                # into the NoC event sequence (unordered-iteration lint).
                for target in sorted(targets):
                    self.record_control(INVALIDATION, bank, target)
                    self.record_control(INVALIDATION, target, bank)
                    self._invalidate_sharer(line, target, self.now + latency)
                    self._counts["invalidations_sent"] += 1

        entry.exclusive_owner = core_id
        entry.sharers.clear()
        # The directory unblocks on the requester's unblock message; ack
        # collection at the requester does not extend the busy window.
        entry.busy_until = max(
            entry.busy_until,
            self.now + self._l2_flat[core_id * self._ntiles + bank],
        )
        if state is SHARED:
            l1.set_state(line, MODIFIED)
        else:
            self._insert_line(core_id, line, MODIFIED)
        return (0, latency, False, False)

    # -- misc ----------------------------------------------------------------

    def self_invalidate(
        self, core_id: int, regions: list[Region], flush_all: bool = False
    ) -> int:
        """MESI needs no self-invalidation; the instruction retires in a cycle."""
        return self.config.l1_hit_latency

    def subscribe_line_change(
        self, core_id: int, addr: int, callback: Callable[[int], None]
    ) -> bool:
        # Quiescence declaration (spin leases): a MESI spinner with a
        # cached copy sleeps here until the writer's invalidation wakes
        # it — it never re-polls, so there is no poll stream to lease
        # (spin_poll_lease stays the base None).  A spinner without a
        # copy re-probes, but that probe refills the line: stateful, not
        # a closed-formable repeat.
        line = self.amap.line_of(addr)
        if self.l1s[core_id].state_of(line, touch=False) is None:
            return False  # copy already invalidated; caller should re-probe
        self._waiters.setdefault(line, []).append((core_id, callback))
        return True

    # -- runtime invariants & diagnostics -------------------------------------

    def invariant_violations(self) -> list[str]:
        return mesi_violations(self)

    def force_evict(self, core_id: int, line: int) -> bool:
        """Evict ``line`` from ``core_id``'s L1 as replacement would:
        writeback if dirty, directory update, and waiter wake-up."""
        state = self.l1s[core_id].state_of(line, touch=False)
        if state is None:
            return False
        self.l1s[core_id].invalidate(line)
        self._handle_victim(core_id, line, state)
        return True

    def debug_resident_lines(self, core_id: int) -> list[int]:
        return self.l1s[core_id].resident_lines()

    def debug_addr_state(self, addr: int) -> str:
        line = self.amap.line_of(addr)
        entry = self._directory.get(line)
        if entry is None:
            directory = "no directory entry"
        else:
            directory = (
                f"owner={entry.exclusive_owner} "
                f"sharers={sorted(entry.sharers)} "
                f"busy_until={entry.busy_until}"
            )
        copies = {
            core_id: l1.state_of(line, touch=False).value
            for core_id, l1 in enumerate(self.l1s)
            if l1.state_of(line, touch=False) is not None
        }
        waiters = sorted(core for core, _ in self._waiters.get(line, []))
        return (
            f"addr {addr} (line {line}): directory[{directory}] "
            f"L1 copies={copies or '{}'} subscribed waiters={waiters}"
        )

    def debug_transients(self) -> list[str]:
        out = []
        for line, entry in sorted(self._directory.items()):
            if entry.busy_until > self.now:
                out.append(
                    f"line {line}: directory busy until cycle "
                    f"{entry.busy_until} (owner={entry.exclusive_owner} "
                    f"sharers={sorted(entry.sharers)})"
                )
        for line, waiters in sorted(self._waiters.items()):
            cores = sorted(core for core, _ in waiters)
            out.append(f"line {line}: cores {cores} sleeping on invalidation")
        return out

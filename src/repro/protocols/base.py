"""Protocol interface shared by MESI and the DeNovo family.

A protocol is the single authority over caches, directory/registry state,
the backing store, latency computation and traffic accounting.  Each memory
operation is applied *atomically at issue time*: all state transitions and
the value read/written commit at the current simulation cycle, and the
returned latency tells the issuing core how long to stall.  Because every
operation goes through the deterministic global event queue, simulated
CAS/FAI operations are linearizable and the synchronization algorithms
built on top behave exactly as they would on coherent hardware.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Callable

from repro.config import SystemConfig
from repro.mem.address import AddressMap
from repro.mem.memory import BackingStore
from repro.mem.regions import Region, RegionAllocator
from repro.noc.mesh import Mesh
from repro.noc.messages import MessageClass, control_flits, data_flits
from repro.noc.traffic import TrafficLedger
from repro.stats.collector import ProtocolCounters

#: Flit sizing is static, so the per-message helpers are hoisted out of
#: the traffic-recording hot path: one module constant for control
#: messages and a payload-size memo for data messages (real payloads are
#: almost always one word or one line).
_CONTROL_FLITS = control_flits()
_DATA_FLITS: dict[int, int] = {}


def _data_flits(payload_bytes: int) -> int:
    flits = _DATA_FLITS.get(payload_bytes)
    if flits is None:
        flits = _DATA_FLITS[payload_bytes] = data_flits(payload_bytes)
    return flits


@dataclass(frozen=True, slots=True)
class SpinLease:
    """Closed form of one *failed* sync spin poll, for spin fast-forward.

    Granted by :meth:`CoherenceProtocol.spin_poll_lease` when repeated
    failed polls of one spinner are *stateless repeats*: each poll
    leaves every piece of protocol state exactly as it found it and
    contributes only the constant deltas below.  While the polled
    word's architectural value is unchanged the core then replaces each
    full probe with a cheap *lease tick* at the same cycle (and, since
    the tick schedules its successor exactly where the real probe
    would, the same event sequence number): the tick re-reads the
    value and reschedules itself.  The tick that sees a change
    *settles* the lease: it adds the deltas once for every elided poll
    (ticks are strictly periodic, so the clock gives their number) and
    then runs the full probe in the very same event.  While a lease is
    open the deltas therefore lag behind a polled run;
    :meth:`CoherenceProtocol.spin_poll_lease` says why nothing can
    observe that.  Results are byte-identical to probing; only the
    Python work per poll shrinks.
    """

    #: Per-poll stall latency (constant while the lease holds); the
    #: core derives the re-poll period from it.
    latency: int
    #: Protocol counter keys bumped by one per poll.  The failed probe
    #: that earned the lease bumped them too, so settling (even after
    #: zero elided polls) never creates a key a polled run lacks.
    counts: tuple[str, ...]
    #: Traffic ledger row (message-class index) the poll charges.
    traffic_idx: int
    #: Flit·hops added to that row per poll.
    flits: int
    #: Messages added to that row per poll.
    messages: int


@dataclass(slots=True)
class Access:
    """Outcome of one memory operation.

    Each public protocol call (``load``/``store``/``rmw``) builds exactly
    one ``Access``, passing every field positionally: a class call with
    keywords costs CPython about twice as much, and this runs once per
    simulated access.  Internal helpers return latencies, not ``Access``
    objects, except MESI's ``_obtain_modified`` and ``_reserve_or_retry``,
    which return the call's single ``Access`` (the caller completes or
    forwards it).  Wrappers may adjust the result in place (the fault
    injector adds jitter to ``latency``).

    ``latency`` is the stall the issuing core must take (1 for a hit or a
    non-blocking store).  ``value`` is the loaded/old value.  ``hit`` is
    True when the access was served entirely from the private L1.

    ``retry`` means the home directory was busy with another transaction
    on this line (MESI's blocking directory): no state changed, no value
    is valid, and the core must stall ``latency`` cycles and re-issue.
    Re-issuing (rather than folding the queue delay into one atomic
    transaction) makes values resolve at directory *service* time, which
    is what arbitrates racing requests realistically.
    """

    value: int
    latency: int
    hit: bool
    retry: bool = False


class CoherenceProtocol(ABC):
    """Common machinery: topology, store, traffic, counters."""

    name = "abstract"

    def __init__(self, config: SystemConfig, allocator: RegionAllocator | None = None):
        self.config = config
        self.amap = AddressMap(config)
        self.mesh = Mesh(config)
        self.memory = BackingStore()
        self.traffic = TrafficLedger()
        self.counters = ProtocolCounters()
        self.allocator = allocator
        # Hot-path aliases, bound once: the per-operation code bumps
        # counters and looks up hop distances millions of times per run,
        # so it goes straight at the flat structures instead of through
        # a method-call layer per event.
        self._counts = self.counters._counts
        self._hops_flat = self.mesh._hops
        self._ntiles = config.num_cores
        self._tflits = self.traffic._flits
        self._tmsgs = self.traffic._messages
        self._mem_values = self.memory._values
        self._mem_get = self._mem_values.get
        self._resident = self.memory._resident_lines
        self._l2_flat = self.mesh._l2_latency
        self._memlat_flat = self.mesh._memory_latency
        # AddressMap arithmetic, inlined at every per-access site:
        # line = addr // _wpl, offset = addr % _wpl, bank = line % _nbanks.
        self._wpl = self.amap.words_per_line
        self._nbanks = self.amap.num_banks
        self.now = 0  # stored by the cores right before each operation

    # -- runtime invariants & diagnostics -----------------------------------

    def invariant_violations(self) -> list[str]:
        """Messages for every currently-violated coherence invariant."""
        return []

    def check_invariants(self) -> None:
        """Raise :class:`~repro.protocols.invariants.InvariantViolation`
        if any coherence invariant is currently violated."""
        violations = self.invariant_violations()
        if violations:
            from repro.protocols.invariants import InvariantViolation

            raise InvariantViolation(self.name, self.now, violations)

    def force_evict(self, core_id: int, line: int) -> bool:
        """Evict ``line`` from ``core_id``'s L1 with full protocol
        bookkeeping (writeback, directory/registry update, waiter
        wake-ups), as replacement pressure would.  Returns False when the
        line is not resident.  Used by the fault-injection harness
        (:mod:`repro.noc.faults`) to model eviction storms."""
        return False

    def debug_resident_lines(self, core_id: int) -> list[int]:
        """Line indices currently resident in ``core_id``'s L1."""
        return []

    def debug_addr_state(self, addr: int) -> str:
        """One-line description of every piece of protocol state covering
        ``addr`` (directory/registry entry, per-core cache states,
        waiters) for hang diagnostics."""
        return f"addr {addr}: (no protocol detail available)"

    def debug_transients(self) -> list[str]:
        """Human-readable lines describing in-flight transient state
        (busy directory windows, registration chains, subscriptions)."""
        return []

    # -- operations -----------------------------------------------------------

    @abstractmethod
    def load(
        self,
        core_id: int,
        addr: int,
        sync: bool = False,
        ticketed: bool = False,
        acquire: bool = False,
    ) -> Access:
        """A load; ``sync`` marks synchronization (volatile/atomic) reads.

        ``ticketed`` marks the re-issue of a request that was told to retry
        (it holds a directory reservation and must be serviced now);
        ``acquire`` marks acquire semantics (consumed by signature-based
        data consistency, a no-op otherwise)."""

    @abstractmethod
    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
        ticketed: bool = False,
    ) -> Access:
        """A store.  Data stores are non-blocking (latency 1); sync stores
        block until ownership/registration is obtained."""

    @abstractmethod
    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
        ticketed: bool = False,
        acquire: bool = False,
    ) -> Access:
        """An atomic read-modify-write.  ``fn(old)`` returns the new value,
        or None to leave memory unchanged (a failed CAS).  Returns the old
        value.  Always a synchronization access."""

    @abstractmethod
    def self_invalidate(
        self, core_id: int, regions: list[Region], flush_all: bool = False
    ) -> int:
        """Software self-invalidation of ``regions`` at an acquire; returns
        the local latency (a no-op for MESI).  ``flush_all`` invalidates
        every non-registered word (the no-region-information fallback)."""

    def on_acquire(self, core_id: int, addr: int) -> None:
        """Acquire-semantics hook (cores call it for acquire-marked ops,
        including the successful probe of a spin wait).  Only the
        signature-based DeNovo variant does anything with it."""

    # -- spin-wait support -----------------------------------------------------

    def sync_read_backoff(
        self, core_id: int, addr: int, spinning: bool = False
    ) -> int:
        """Cycles of hardware backoff to insert before a sync read.

        ``spinning`` marks spin-wait re-probes (see
        :meth:`repro.protocols.backoff.BackoffState.stall_cycles`).
        Zero for every protocol except DeNovoSync.
        """
        return 0

    def subscribe_line_change(
        self, core_id: int, addr: int, callback: Callable[[int], None]
    ) -> bool:
        """Ask to be notified when the cached copy of ``addr`` is invalidated.

        The callback receives the wake-up cycle.  MESI supports this for any
        cached copy (a spinner sits on its Shared copy and is woken by the
        writer's invalidation).  DeNovo supports it only for a word the core
        has *Registered* (the spinner hits locally until a remote request
        steals the registration, which is the wake-up event); in every other
        state the caller must poll, because each re-read is a real miss.
        Returns False when no subscription is possible — re-probe instead.
        """
        return False

    def spin_poll_lease(self, core_id: int, addr: int) -> SpinLease | None:
        """Declare ``core_id``'s failed spin polls of ``addr`` quiescent.

        Called right after a failed, unsubscribed sync spin probe.
        Return a :class:`SpinLease` only when *every* further failed
        poll of ``addr`` by this core is a stateless repeat of the one
        that just ran — the quiescent-until-signaled contract:

        * the poll mutates **no** protocol state (no cache fill or
          eviction, no directory/registry transition, no backoff
          counter) — its only effects are the lease's constant counter,
          traffic, and latency deltas;
        * its latency is constant (e.g. the word's home-bank round trip
          with the line already LLC-resident);
        * the polled value is ``memory._values[addr]``, and that entry
          changes only through the protocol's *wake hooks* — the
          declared mutation points (``load``/``store``/``rmw``/
          ``sync_load``/``sync_store`` or a ``wake_hooks`` override;
          the ``undeclared-wake-mutation`` sanitize rule enforces
          this) — so re-reading it each tick observes exactly what the
          full probe would.

        The core charges the lease's deltas at settle time, once per
        elided poll, so while the lease is open they lag behind a
        polled run.  That is unobservable: a lease ends only by
        settling, and its ticks keep the event queue non-empty until
        it does; nothing reads counters, traffic or per-core time
        before the run ends (hang diagnostics read none); and every
        :class:`ProtocolWrapper` (the layers that watch individual
        accesses) restores this default, so wrapped runs never lease.

        Return None (the default) when any of this fails to hold; the
        core then keeps issuing full probes.  Only polling protocols
        (Neat) grant leases: subscription-based spinners (MESI, the
        DeNovo registry, SynCron's sync units) park instead and their
        probes are stateful.
        """
        return None

    # -- traffic helpers --------------------------------------------------------

    def record_control(self, klass: MessageClass, src: int, dst: int) -> None:
        # Ledger accounting is inlined: traffic.record would be one more
        # call per protocol message.
        idx = klass.idx
        self._tflits[idx] += (
            _CONTROL_FLITS * self._hops_flat[src * self._ntiles + dst]
        )
        self._tmsgs[idx] += 1

    def record_data(
        self, klass: MessageClass, src: int, dst: int, payload_bytes: int
    ) -> None:
        flits = _DATA_FLITS.get(payload_bytes)
        if flits is None:
            flits = _DATA_FLITS[payload_bytes] = data_flits(payload_bytes)
        idx = klass.idx
        self._tflits[idx] += flits * self._hops_flat[src * self._ntiles + dst]
        self._tmsgs[idx] += 1

    # -- shared latency helpers ---------------------------------------------------

    def llc_fetch_latency(self, core_id: int, line: int) -> tuple[int, bool]:
        """Latency to fetch ``line`` at its home bank, touching it in.

        Returns (latency, cold): cold misses pay the memory latency and the
        extra controller traffic is charged by the caller.
        """
        bank = line % self._nbanks
        resident = self._resident
        if line in resident:
            return self._l2_flat[core_id * self._ntiles + bank], False
        resident.add(line)
        self._counts["cold_misses"] += 1
        return self._memlat_flat[core_id * self._ntiles + bank], True

    def record_memory_fill(self, klass: MessageClass, line: int) -> None:
        """Traffic of a cold-miss line fill between controller and bank."""
        bank = self.amap.home_bank(line)
        controller = self.mesh.nearest_controller(bank)
        hops = self.mesh.hops(bank, controller)
        self.traffic.record(klass, _CONTROL_FLITS, hops)
        self.traffic.record(klass, _data_flits(self.config.line_bytes), hops)


class ProtocolWrapper:
    """Base of every optional per-access layer around a protocol.

    Tracing (:class:`~repro.trace.recorder.TracingProtocol`), fault
    injection (:class:`~repro.noc.faults.FaultInjector`) and runtime
    invariant audits (:class:`~repro.protocols.invariants.InvariantAudit`)
    each override only the calls they add work to.  Every other
    attribute (``memory``, ``counters``, ``debug_transients``, ...) is
    read from ``inner``, and the clock the cores store into ``now`` lands
    on the bare protocol at the bottom of the stack.
    """

    #: Never lease: a lease tick replays a poll without calling the
    #: protocol, so it would skip this wrapper's per-access work.
    spin_poll_lease = CoherenceProtocol.spin_poll_lease

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name: str):
        # Reached only for names the wrapper does not define.
        return getattr(self.inner, name)

    @property
    def now(self) -> int:
        return self.inner.now

    @now.setter
    def now(self, now: int) -> None:
        self.inner.now = now

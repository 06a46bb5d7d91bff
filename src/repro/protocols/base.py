"""Protocol interface shared by MESI and the DeNovo family.

A protocol is the single authority over caches, directory/registry state,
the backing store, latency computation and traffic accounting.  Each memory
operation is applied *atomically at issue time*: all state transitions and
the value read/written commit at the current simulation cycle, and the
returned latency tells the issuing core how long to stall.  Because every
operation goes through the deterministic global event queue, simulated
CAS/FAI operations are linearizable and the synchronization algorithms
built on top behave exactly as they would on coherent hardware.

Every ``load``, ``store`` and ``rmw`` (of a backend or a
:class:`ProtocolWrapper`) returns the plain tuple
``(value, latency, hit, retry)``, not an object: this runs once per
simulated access, and a slotted dataclass's generated ``__init__`` cost
about 130 ns against 27 ns for the tuple (Python 3.11.7).

* ``value``: the loaded word, or the old value of a store or RMW.
* ``latency``: the stall the issuing core must take (1 for a hit or a
  non-blocking store).
* ``hit``: the access was served entirely from the private L1.
* ``retry``: the access was not performed (MESI's blocking directory was
  busy with another transaction on this line, or the fault injector
  deferred it), so ``value`` is meaningless; the core stalls
  ``latency`` cycles and re-issues the same operation through the same
  call, carrying nothing (a reservation is the backend's own, as at
  MESI's directory).  Re-issuing, rather than folding the queue delay
  into one atomic transaction, resolves values at directory *service*
  time, which is what arbitrates racing requests realistically.

Internal helpers return latencies, except MESI's ``_obtain_modified``
and ``_reserve_or_retry``, which return the same shape.  A wrapper that
adjusts a result (the fault injector's jitter) returns a new tuple.
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

#: Flit sizing is static, so it is hoisted out of ``record_control`` and
#: ``record_data``: one module constant for control messages and a
#: payload-size memo for data messages (real payloads are almost always
#: one word or one line).
_CONTROL_FLITS = control_flits()
_DATA_FLITS: dict[int, int] = {}


@dataclass(frozen=True, slots=True)
class SpinLease:
    """Closed form of one *failed* sync spin poll, for spin fast-forward.

    Granted by :meth:`CoherenceProtocol.spin_poll_lease` when repeated
    failed polls of one spinner are *stateless repeats*: each poll
    leaves every piece of protocol state exactly as it found it and
    contributes only the constant deltas below.  While the polled
    word's architectural value is unchanged the core then replaces the
    full probes with an engine watch
    (:meth:`~repro.sim.engine.Simulator.watch_at`): the engine
    re-reads ``memory._values[addr]`` at the cycle and event sequence
    number each full probe would have had, and reschedules the poll
    without calling into the core or the protocol.  The first poll that
    sees a change *settles* the lease:
    :meth:`CoherenceProtocol.settle_lease` charges
    the deltas once for every elided poll (polls are strictly periodic,
    so the clock gives their number) and the core then runs the full
    probe in the very same event.  While a lease is open the deltas
    therefore lag behind a polled run;
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
    #: The messages one poll sends, as ``(class, src, dst,
    #: payload_bytes)``; a payload of 0 is a control message.
    #: :meth:`CoherenceProtocol.settle_lease` charges each of them once
    #: per elided poll through :meth:`CoherenceProtocol.record_data`.
    messages: tuple[tuple[MessageClass, int, int, int], ...]


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
        # key -> [(core_id, callback)] spin-waiters asleep on a cached
        # copy (see subscribe_line_change), woken by :meth:`_wake`.  MESI
        # keys it by line, the DeNovo registry by word.
        self._waiters: dict[int, list[tuple[int, Callable[[int], None]]]] = {}
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

    # The core calls these positionally, so an override must keep the
    # parameter names and their order (tests/test_registry.py checks).

    @abstractmethod
    def load(self, core_id: int, addr: int, sync: bool = False) -> tuple:
        """A load; ``sync`` marks synchronization (volatile/atomic) reads.

        An acquire-marked load reaches the protocol as this call followed,
        once it completes, by :meth:`on_acquire`."""

    @abstractmethod
    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
    ) -> tuple:
        """A store.  Data stores are non-blocking (latency 1); sync stores
        block until ownership/registration is obtained.  ``release`` marks
        release semantics."""

    @abstractmethod
    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
    ) -> tuple:
        """An atomic read-modify-write.  ``fn(old)`` returns the new value,
        or None to leave memory unchanged (a failed CAS).  Returns the old
        value.  Always a synchronization access; an acquire-marked RMW is
        followed by :meth:`on_acquire` as for a load."""

    @abstractmethod
    def self_invalidate(
        self, core_id: int, regions: list[Region], flush_all: bool = False
    ) -> int:
        """Software self-invalidation of ``regions`` at an acquire; returns
        the local latency (a no-op for MESI).  ``flush_all`` invalidates
        every non-registered word (the no-region-information fallback)."""

    def on_acquire(self, core_id: int, addr: int) -> None:
        """Acquire-semantics hook, the only way an acquire reaches a
        protocol: the core calls it right after every completed (not
        retried) acquire-marked load or RMW and after the successful
        probe of an acquire-marked spin wait, in the same cycle.  Only
        the signature-based DeNovo variant does anything with it."""

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

    def _wake(self, key: int, core_id: int, wake_time: int) -> None:
        """Wake, at ``wake_time``, every spin-waiter ``core_id`` has
        asleep on ``key`` in :attr:`_waiters`: its copy is gone (stolen,
        invalidated or evicted), so only a re-probe can observe change."""
        waiters = self._waiters.get(key)
        if not waiters:
            return
        remaining = []
        for waiter_core, callback in waiters:
            if waiter_core == core_id:
                callback(wake_time)
            else:
                remaining.append((waiter_core, callback))
        if remaining:
            self._waiters[key] = remaining
        else:
            del self._waiters[key]

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
        * the polled value is ``memory._values[addr]``.  The engine
          watch re-reads that entry at the (cycle, seq) of every
          would-be probe, so it sees a write at the same point as the
          full probe would, whichever protocol method made the write.

        :meth:`settle_lease` charges the lease's deltas when the core
        settles it, once per elided poll, so while the lease is open
        they lag behind a polled run.  That is unobservable: a lease
        ends only by settling, and its watch keeps the event queue
        non-empty until it does; nothing reads counters, traffic or
        per-core time before the run ends (hang diagnostics read none);
        and every :class:`ProtocolWrapper` (the layers that watch
        individual accesses) restores this default, so wrapped runs
        never lease.

        Return None (the default) when any of this fails to hold; the
        core then keeps issuing full probes.  Only polling protocols
        (Neat) grant leases: subscription-based spinners (MESI, the
        DeNovo registry, SynCron's sync units) park instead and their
        probes are stateful.
        """
        return None

    def settle_lease(self, lease: SpinLease, polls: int) -> None:
        """Charge ``polls`` elided polls of ``lease``: its counter keys
        and its messages, each as often as a polled run would have."""
        counts = self._counts
        for key in lease.counts:
            counts[key] += polls
        for klass, src, dst, payload_bytes in lease.messages:
            self.record_data(klass, src, dst, payload_bytes, polls)

    # -- traffic ------------------------------------------------------------------

    # The only code that turns a message into flit crossings: every
    # message a protocol sends is charged through one of these two calls.

    def record_control(self, klass: MessageClass, src: int, dst: int) -> None:
        """Charge one control message from tile ``src`` to tile ``dst``."""
        idx = klass.idx
        self._tflits[idx] += (
            _CONTROL_FLITS * self._hops_flat[src * self._ntiles + dst]
        )
        self._tmsgs[idx] += 1

    def record_data(
        self, klass: MessageClass, src: int, dst: int, payload_bytes: int, times: int = 1
    ) -> None:
        """Charge ``times`` messages carrying ``payload_bytes`` of data
        from tile ``src`` to tile ``dst``."""
        flits = _DATA_FLITS.get(payload_bytes)
        if flits is None:
            flits = _DATA_FLITS[payload_bytes] = data_flits(payload_bytes)
        idx = klass.idx
        self._tflits[idx] += times * flits * self._hops_flat[src * self._ntiles + dst]
        self._tmsgs[idx] += times

    # -- shared latency helpers ---------------------------------------------------

    def llc_fetch_latency(self, core_id: int, line: int, klass: MessageClass) -> int:
        """Latency for ``core_id`` to fetch ``line`` at its home bank.

        A warm line costs the LLC round trip.  The line's first touch (a
        cold miss) makes it LLC-resident, costs the memory latency, bumps
        ``cold_misses`` and charges the fill to ``klass``: the bank's
        control message to its nearest memory controller and the line
        sent back.
        """
        bank = line % self._nbanks
        resident = self._resident
        if line in resident:
            return self._l2_flat[core_id * self._ntiles + bank]
        resident.add(line)
        self._counts["cold_misses"] += 1
        controller = self.mesh.nearest_controller(bank)
        self.record_control(klass, bank, controller)
        # Read through config, not a bound alias: on CPython 3.11 an
        # instance with 30 or more attributes loads each ``self.`` name
        # about 1.5 ns slower, and one more alias here would take
        # DeNovoSync0 from 29 attributes to 30.
        self.record_data(klass, controller, bank, self.config.line_bytes)
        return self._memlat_flat[core_id * self._ntiles + bank]


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

    #: Never lease: a lease poll replays a probe without calling the
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

"""The simulated core: a simple in-order, 1-CPI engine with blocking loads.

A core drives one thread program (a generator yielding ISA operations).
Every operation is applied to the coherence protocol atomically at issue
time; the core then sleeps on the event queue for the returned latency and
resumes the generator with the result value.

Cycle accounting follows the paper's figure components: each instruction
costs one compute cycle (spinning read *hits* therefore show up as compute
time); miss latency beyond the first cycle is memory stall; hardware
backoff stalls are tracked separately; and a bucket-override stack lets
the workload driver route whole stretches (the end-of-kernel barrier, the
non-synchronization dummy work) to their own components.

Spin-wait execution (:class:`~repro.cpu.isa.WaitLoad`):

* under MESI the core probes once, then *subscribes* to the invalidation
  of its cached copy and sleeps — modelling the zero-traffic local spin —
  waking to re-probe when the writer's invalidation arrives;
* under DeNovo the core re-probes in a loop; every probe is a registering
  sync-read miss, preceded by whatever hardware backoff the protocol asks
  for.  This is where DeNovoSync0's ping-ponging and DeNovoSync's adaptive
  delays emerge.

Hot-path structure: operations dispatch through a per-class handler table
instead of an ``isinstance`` chain, and every event the core schedules
goes through :meth:`~repro.sim.engine.Simulator.call_after` /
``call_at`` with a method prebound in ``__init__`` — no closure per
operation.  Calls into the protocol pass every argument positionally
(keywords cost CPython extra on a call made once per access).  The state
a retry needs (the op, the RMW operands, the spin re-probe cycle) lives
in per-core fields, which is sound because an in-order blocking core has
exactly one operation in flight.  The model checker's scheduling gate
lives in a subclass, :class:`~repro.mc.controller.GatedCore`, which
overrides :meth:`Core._dispatch`.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.cpu import isa
from repro.protocols.base import Access, CoherenceProtocol
from repro.sim.engine import Simulator
from repro.stats.timeparts import TimeBreakdown, TimeComponent

#: Cycles of loop overhead between consecutive spin probes (branch + test).
SPIN_LOOP_OVERHEAD = 1

#: Array ordinals of the components touched on every memory access
#: (accounting indexes ``TimeBreakdown._cycles`` directly, see below).
_IDX_COMPUTE = TimeComponent.COMPUTE.idx
_IDX_MEMORY_STALL = TimeComponent.MEMORY_STALL.idx


class Core:
    """One in-order core executing one thread program."""

    def __init__(self, core_id: int, sim: Simulator, protocol: CoherenceProtocol):
        self.core_id = core_id
        self.sim = sim
        self.protocol = protocol
        self.time = TimeBreakdown()
        self._tc = self.time._cycles
        # Protocols that never ask for hardware backoff (everything except
        # DeNovoSync) skip the query entirely on sync loads and spin probes.
        self._has_backoff = _overrides(protocol, "sync_read_backoff")
        self.finish_time: int | None = None
        self._gen: Generator | None = None
        self._bucket_stack: list[TimeComponent] = []
        # Watchdog-visible blocked state: the ISA op currently in flight,
        # why the core is waiting (a constant string — no per-op
        # formatting on the hot path), and when it started waiting.
        self.pending_op = None
        self.wait_reason: str | None = None
        self.blocked_since = 0
        # In-flight retry state (one op in flight on an in-order core).
        self._rmw_state: tuple | None = None
        self._spin_op: isa.WaitLoad | None = None
        self._spin_retry_at = 0
        # Spin fast-forward: an open lease, as (expected value, re-poll
        # period, first tick's cycle, SpinLease, ((time-component idx,
        # cycles), ...)).  Armed in _spin_probe_issue; a tick needs only
        # the first two fields, and the settling tick charges the rest
        # once for every poll the lease elided.  Eligibility is static
        # per run: backoff-capable protocols and protocol wrappers
        # (tracing, fault injection, runtime audits, which restore the
        # base spin_poll_lease) never lease.
        self._lease: tuple | None = None
        self._lease_ok = not self._has_backoff and _overrides(
            protocol, "spin_poll_lease"
        )
        # Callbacks prebound once so the hot path schedules (method, arg)
        # pairs instead of allocating a closure per operation.
        self._cb_step = self._step
        self._cb_finish_load = self._finish_load
        self._cb_retry_load = self._retry_load
        self._cb_retry_store = self._retry_store
        self._cb_retry_rmw = self._retry_rmw
        self._cb_spin_probe = self._spin_probe
        self._cb_spin_probe_issue = self._spin_probe_issue
        self._cb_spin_retry = self._retry_spin_probe
        self._cb_on_invalidated = self._on_invalidated
        self._cb_lease_tick = self._lease_tick

    # -- lifecycle ----------------------------------------------------------

    def start(self, program: Generator) -> None:
        """Begin executing ``program`` at cycle 0."""
        self._gen = program
        self.sim.call_at(0, self._cb_step, None)

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    # -- accounting -----------------------------------------------------------

    def _account(self, component: TimeComponent, cycles: int) -> None:
        # Accounting runs several times per memory operation, so both
        # methods write the breakdown array directly instead of going
        # through TimeBreakdown.add.
        if cycles <= 0:
            return
        stack = self._bucket_stack
        self._tc[(stack[-1] if stack else component).idx] += cycles

    def _account_access(self, access: Access) -> None:
        """One compute cycle to issue, the rest of the latency as stall."""
        lat = access.latency
        if lat <= 0:
            return
        tc = self._tc
        stack = self._bucket_stack
        if access.retry:
            # Waiting out a busy directory is pure memory stall.
            tc[stack[-1].idx if stack else _IDX_MEMORY_STALL] += lat
            return
        if stack:
            # Both the compute and the stall share go to the override
            # bucket, so they collapse into one add.
            tc[stack[-1].idx] += lat
        else:
            tc[_IDX_COMPUTE] += 1
            if lat > 1:
                tc[_IDX_MEMORY_STALL] += lat - 1

    # -- the dispatch loop --------------------------------------------------------

    def _step(self, send_value) -> None:
        """Resume the program with ``send_value`` and run its next operation."""
        # Resuming the generator is the retirement point of the previous
        # operation: stamp global progress for the liveness watchdog.
        sim = self.sim
        sim.progress_cycle = sim.now
        try:
            op = self._gen.send(send_value)
        except StopIteration:
            self.finish_time = sim.now
            self.pending_op = None
            self.wait_reason = None
            return
        self.pending_op = op
        self.blocked_since = sim.now
        self._dispatch(op)

    def _dispatch(self, op) -> None:
        handler = _HANDLERS.get(op.__class__)
        if handler is None:
            raise TypeError(f"core {self.core_id}: unknown operation {op!r}")
        handler(self, op)

    # -- per-class handlers (wired into _HANDLERS below) ----------------------

    def _h_compute(self, op: isa.Compute) -> None:
        self.wait_reason = "compute"
        self._account(op.component, op.cycles)
        self.sim.call_after(op.cycles, self._cb_step, None)

    def _h_cas(self, op: isa.Cas) -> None:
        self._issue_rmw(
            op.addr,
            lambda old: op.new if old == op.expected else None,
            op.release,
            acquire=op.acquire,
        )

    def _h_fai(self, op: isa.Fai) -> None:
        self._issue_rmw(
            op.addr, lambda old: old + op.delta, op.release, acquire=op.acquire
        )

    def _h_swap(self, op: isa.Swap) -> None:
        self._issue_rmw(op.addr, lambda old: op.value, op.release, acquire=op.acquire)

    def _h_self_invalidate(self, op: isa.SelfInvalidate) -> None:
        self.wait_reason = "self-invalidate"
        self.protocol.now = self.sim.now
        latency = self.protocol.self_invalidate(
            self.core_id, list(op.regions), op.flush_all
        )
        self._account(TimeComponent.COMPUTE, latency)
        self.sim.call_after(latency, self._cb_step, None)

    def _h_push_bucket(self, op: isa.PushBucket) -> None:
        self._bucket_stack.append(op.component)
        self._step(None)

    def _h_pop_bucket(self, op: isa.PopBucket) -> None:
        if not self._bucket_stack:
            raise RuntimeError(f"core {self.core_id}: PopBucket with empty stack")
        self._bucket_stack.pop()
        self._step(None)

    # -- loads (with hardware backoff) ------------------------------------------

    def _issue_load(self, op: isa.Load) -> None:
        if op.sync and self._has_backoff:
            backoff = self.protocol.sync_read_backoff(self.core_id, op.addr)
            if backoff > 0:
                self.wait_reason = "hw-backoff"
                self._account(TimeComponent.HW_BACKOFF, backoff)
                self.sim.call_after(backoff, self._cb_finish_load, op)
                return
        self._finish_load(op)

    def _finish_load(self, op: isa.Load, ticketed: bool = False) -> None:
        self.protocol.now = self.sim.now
        access = self.protocol.load(self.core_id, op.addr, op.sync, ticketed, op.acquire)
        self._account_access(access)
        if access.retry:
            self.wait_reason = "directory-retry"
            self.sim.call_after(access.latency, self._cb_retry_load, op)
            return
        self.wait_reason = "memory-access"
        self.sim.call_after(access.latency, self._cb_step, access.value)

    def _retry_load(self, op: isa.Load) -> None:
        self._finish_load(op, ticketed=True)

    def _issue_store(self, op: isa.Store, ticketed: bool = False) -> None:
        self.protocol.now = self.sim.now
        access = self.protocol.store(
            self.core_id, op.addr, op.value, op.sync, op.release, ticketed
        )
        self._account_access(access)
        if access.retry:
            self.wait_reason = "directory-retry"
            self.sim.call_after(access.latency, self._cb_retry_store, op)
            return
        self.wait_reason = "memory-access"
        self.sim.call_after(access.latency, self._cb_step, access.value)

    def _retry_store(self, op: isa.Store) -> None:
        self._issue_store(op, ticketed=True)

    def _issue_rmw(
        self, addr: int, fn, release: bool, ticketed: bool = False,
        acquire: bool = False,
    ) -> None:
        self.protocol.now = self.sim.now
        access = self.protocol.rmw(self.core_id, addr, fn, release, ticketed, acquire)
        self._account_access(access)
        if access.retry:
            self.wait_reason = "directory-retry"
            self._rmw_state = (addr, fn, release, acquire)
            self.sim.call_after(access.latency, self._cb_retry_rmw, None)
            return
        self.wait_reason = "memory-access"
        self.sim.call_after(access.latency, self._cb_step, access.value)

    def _retry_rmw(self, _unused) -> None:
        addr, fn, release, acquire = self._rmw_state
        self._issue_rmw(addr, fn, release, ticketed=True, acquire=acquire)

    # -- spin-wait ------------------------------------------------------------------

    def _spin_probe(self, op: isa.WaitLoad) -> None:
        """One probe of a spin-wait; reschedules itself until ``pred`` holds."""
        if op.sync and self._has_backoff:
            backoff = self.protocol.sync_read_backoff(self.core_id, op.addr, True)
            if backoff > 0:
                self.wait_reason = "hw-backoff"
                self._account(TimeComponent.HW_BACKOFF, backoff)
                self.sim.call_after(backoff, self._cb_spin_probe_issue, op)
                return
        self._spin_probe_issue(op)

    def _spin_probe_issue(self, op: isa.WaitLoad, ticketed: bool = False) -> None:
        self.protocol.now = self.sim.now
        access = self.protocol.load(self.core_id, op.addr, op.sync, ticketed)
        self._account_access(access)
        if access.retry:
            self.wait_reason = "directory-retry"
            self.sim.call_after(access.latency, self._cb_spin_retry, op)
            return
        if op.pred(access.value):
            if op.acquire:
                # The successful probe is the acquire point.
                self.protocol.on_acquire(self.core_id, op.addr)
            self.wait_reason = "memory-access"
            self.sim.call_after(access.latency, self._cb_step, access.value)
            return
        # Failed probe: wait for our copy to change if the protocol can tell
        # us (MESI), otherwise poll again after the probe completes.
        retry_at = self.sim.now + access.latency
        self._spin_op = op
        self._spin_retry_at = retry_at
        subscribed = self.protocol.subscribe_line_change(
            self.core_id, op.addr, self._cb_on_invalidated
        )
        if subscribed:
            # Sleeping with no scheduled event of our own: only the
            # protocol's wake callback can resume us.  This is the state
            # the PR-1 eviction bug stranded cores in.
            self.wait_reason = "spin-sleep (subscribed)"
            return
        self.wait_reason = "spin-poll"
        self._account(TimeComponent.COMPUTE, SPIN_LOOP_OVERHEAD)
        sim = self.sim
        if self._lease_ok and op.sync:
            lease = self.protocol.spin_poll_lease(self.core_id, op.addr)
            if lease is not None:
                lat = lease.latency
                stack = self._bucket_stack
                # Freeze the per-poll time accounting now: the stack
                # cannot change while this core is blocked spinning.
                # Mirrors _account_access(lat) + the loop-overhead
                # compute cycle above.
                if stack:
                    acct = (
                        (stack[-1].idx, max(lat, 0) + SPIN_LOOP_OVERHEAD),
                    )
                elif lat > 1:
                    acct = (
                        (_IDX_COMPUTE, 1 + SPIN_LOOP_OVERHEAD),
                        (_IDX_MEMORY_STALL, lat - 1),
                    )
                else:
                    acct = (
                        (_IDX_COMPUTE, max(lat, 0) + SPIN_LOOP_OVERHEAD),
                    )
                first_tick = retry_at + SPIN_LOOP_OVERHEAD
                self._lease = (
                    access.value, lat + SPIN_LOOP_OVERHEAD, first_tick, lease, acct
                )
                self.wait_reason = "spin-poll (leased)"
                sim.call_at(first_tick, self._cb_lease_tick, op)
                return
        sim.call_at(retry_at + SPIN_LOOP_OVERHEAD, self._cb_spin_probe, op)

    def _lease_tick(self, op: isa.WaitLoad) -> None:
        """One fast-forwarded spin poll under an open lease.

        Fires at exactly the cycle (and, because the successor is
        scheduled from inside the same event, the sequence number) the
        full probe would have occupied.  While the polled value is
        unchanged the probe's outcome is a stateless repeat (the
        :meth:`~repro.protocols.base.CoherenceProtocol.spin_poll_lease`
        contract) — re-reading the value each tick keeps even an
        A→B→A flip exact — so the tick only reschedules itself.  The
        tick that sees a change *settles* the lease: ticks are strictly
        periodic from the first one, so the clock gives the number of
        elided polls, and their constant counter, traffic and time
        deltas are added at once.  The full probe then runs *inside
        this same event*, which re-evaluates the predicate, resumes or
        re-arms, and keeps the schedule byte-identical to the reference
        engine's.  Until that settle the deltas lag, which nothing
        observes (see the ``spin_poll_lease`` contract).
        """
        lease = self._lease
        protocol = self.protocol
        if protocol._mem_get(op.addr, 0) == lease[0]:
            self.sim.call_after(lease[1], self._cb_lease_tick, op)
            return
        self._lease = None
        _, period, first_tick, grant, acct = lease
        sim = self.sim
        polls = (sim.now - first_tick) // period
        counts = protocol._counts
        for key in grant.counts:
            counts[key] += polls
        idx = grant.traffic_idx
        protocol._tflits[idx] += polls * grant.flits
        protocol._tmsgs[idx] += polls * grant.messages
        tc = self._tc
        for cidx, cycles in acct:
            tc[cidx] += polls * cycles
        sim._spin_polls_elided += polls
        self._spin_probe(op)

    def _retry_spin_probe(self, op: isa.WaitLoad) -> None:
        self._spin_probe_issue(op, ticketed=True)

    def _on_invalidated(self, wake_time: int) -> None:
        retry_at = self._spin_retry_at
        wake = wake_time if wake_time > retry_at else retry_at
        # The wait itself is local spinning on a cached copy: compute.
        self._account(TimeComponent.COMPUTE, wake - retry_at)
        self.sim.call_at(wake, self._cb_spin_probe, self._spin_op)


def _overrides(protocol, name: str) -> bool:
    """True when ``protocol``'s method ``name``, as resolved through any
    wrappers, is not the :class:`CoherenceProtocol` default."""
    return getattr(protocol, name).__func__ is not getattr(CoherenceProtocol, name)


#: Operation dispatch: one dict lookup on the op's exact class instead of
#: a nine-way isinstance chain per operation.
_HANDLERS = {
    isa.Compute: Core._h_compute,
    isa.Load: Core._issue_load,
    isa.Store: Core._issue_store,
    isa.Cas: Core._h_cas,
    isa.Fai: Core._h_fai,
    isa.Swap: Core._h_swap,
    isa.WaitLoad: Core._spin_probe,
    isa.SelfInvalidate: Core._h_self_invalidate,
    isa.PushBucket: Core._h_push_bucket,
    isa.PopBucket: Core._h_pop_bucket,
}

"""Deterministic fault injection: adversarial-but-legal event orderings.

The simulator is deterministic, which makes it reproducible — and blind:
a protocol race only shows up if the one ordering the event queue happens
to produce tickles it.  This module widens the explored schedule space
without giving up reproducibility.  A :class:`FaultPlan` (pure data,
seeded) describes perturbations that are all *legal* behaviours of the
modelled hardware:

* **delay jitter** — every completed access is stretched by a few extra
  cycles (NoC contention the latency model doesn't simulate), shifting
  every downstream race window;
* **bounded reordering** — a first-issue access is randomly deferred and
  re-issued (as a directory retry would be), changing the commit order of
  racing requests while each core's own program order is untouched;
* **eviction storms** — periodic forced L1 evictions with full protocol
  bookkeeping (writeback, directory/registry update, waiter wake-up),
  simulating far higher capacity pressure than the footprint causes
  naturally — this is the exact stressor behind the PR-1 sleeping-waiter
  bug;
* **scripted evictions** — exact ``(cycle, core, line)`` triples, for
  regression tests that must hit a specific race window.

:class:`FaultInjector` applies a plan as a
:class:`~repro.protocols.base.ProtocolWrapper`; the runner wraps it
inside any tracing and calls :meth:`FaultInjector.attach` to schedule
the storm events.  Under a correct protocol, any plan must leave
final memory state identical to the unperturbed run for deterministic
workloads — asserted by the chaos differential tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable

from repro.protocols.base import Access, CoherenceProtocol, ProtocolWrapper


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the perturbations to apply to one run.

    All fields default to "no perturbation"; ``seed`` feeds a dedicated
    RNG so fault decisions are reproducible and independent of the
    workload's own seeding.
    """

    seed: int = 0
    #: Max extra cycles added to each completed access's latency.
    delay_jitter: int = 0
    #: Probability of deferring a first-issue access (forced retry).
    reorder_prob: float = 0.0
    #: Max cycles a deferred access stalls before its forced re-issue.
    reorder_delay: int = 16
    #: Cycles between eviction storms (0 disables storms).
    evict_period: int = 0
    #: Random (core, line) evictions attempted per storm.
    evict_lines: int = 1
    #: Exact (cycle, core_id, line) evictions, for regression tests.
    scripted_evictions: tuple = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.reorder_prob <= 1.0:
            raise ValueError(
                f"reorder_prob must be in [0, 1], got {self.reorder_prob!r}"
            )
        if self.delay_jitter < 0 or self.evict_period < 0:
            raise ValueError("delay_jitter and evict_period must be >= 0")
        if self.reorder_delay < 1:
            raise ValueError(f"reorder_delay must be >= 1, got {self.reorder_delay!r}")

    @property
    def active(self) -> bool:
        return bool(
            self.delay_jitter
            or self.reorder_prob
            or self.evict_period
            or self.scripted_evictions
        )


class FaultInjector(ProtocolWrapper):
    """Apply a :class:`FaultPlan` while delegating to ``inner``.

    ``injected_delay`` / ``deferrals`` / ``forced_evictions`` count what
    was actually injected (tests assert plans took effect).
    """

    def __init__(self, inner: CoherenceProtocol, plan: FaultPlan):
        super().__init__(inner)
        self.plan = plan
        self.rng = random.Random((plan.seed << 1) ^ 0x5EED)
        self.injected_delay = 0
        self.deferrals = 0
        self.forced_evictions = 0
        #: Cores whose in-flight access was deferred (one op per core).
        self._deferred: set[int] = set()
        self._sim = None
        self._keep_running: Callable[[], bool] = lambda: True

    # -- scheduling hooks (called by the runner) ---------------------------

    def attach(self, sim, keep_running: Callable[[], bool] | None = None) -> None:
        """Schedule this plan's eviction events on ``sim``.

        ``keep_running`` gates storm rescheduling (the runner passes
        "some core is still executing") so storms don't keep the event
        queue alive after the workload finishes.
        """
        self._sim = sim
        if keep_running is not None:
            self._keep_running = keep_running
        for cycle, core_id, line in self.plan.scripted_evictions:
            sim.call_at(cycle, self._scripted_evict, (core_id, line))
        if self.plan.evict_period > 0:
            sim.call_after(self.plan.evict_period, self._storm_tick)

    def _scripted_evict(self, target: tuple[int, int]) -> None:
        core_id, line = target
        self.inner.now = self._sim.now
        if self.inner.force_evict(core_id, line):
            self.forced_evictions += 1

    def _storm_tick(self, _unused) -> None:
        if not self._keep_running():
            return
        self.inner.now = self._sim.now
        num_cores = self.inner.config.num_cores
        for _ in range(self.plan.evict_lines):
            core_id = self.rng.randrange(num_cores)
            lines = self.inner.debug_resident_lines(core_id)
            if not lines:
                continue
            line = self.rng.choice(lines)
            if self.inner.force_evict(core_id, line):
                self.forced_evictions += 1
        self._sim.call_after(self.plan.evict_period, self._storm_tick)

    # -- perturbation helpers ----------------------------------------------

    def _defer(self, core_id: int, ticketed: bool) -> tuple[Access | None, bool]:
        """Maybe turn a first-issue access into a forced retry; return it
        (or None) and the ``ticketed`` flag to forward to ``inner``.

        The core re-issues a deferred access with ``ticketed=True``, as
        after a real directory retry, so it is never deferred twice and
        commits at its *re-issue* time: a bounded reordering of racing
        requests' service order.  But a deferral holds no directory
        reservation, so that re-issue is forwarded unticketed and passes
        the protocol's admission check; a real retry after it keeps its
        ticket.
        """
        if ticketed:
            reserved = core_id not in self._deferred
            self._deferred.discard(core_id)
            return None, reserved
        if not self.plan.reorder_prob or self.rng.random() >= self.plan.reorder_prob:
            return None, False
        self.deferrals += 1
        self._deferred.add(core_id)
        delay = self.rng.randint(1, self.plan.reorder_delay)
        return Access(0, delay, False, True), False

    def _jitter(self, access: Access) -> Access:
        if self.plan.delay_jitter and not access.retry:
            extra = self.rng.randint(0, self.plan.delay_jitter)
            access.latency += extra
            self.injected_delay += extra
        return access

    def debug_transients(self) -> list[str]:
        """The injector's own activity line, then ``inner``'s transients."""
        out = []
        if self.plan.active:
            out.append(
                f"fault plan: seed={self.plan.seed} "
                f"jitter<={self.plan.delay_jitter} "
                f"reorder_prob={self.plan.reorder_prob} "
                f"evict_period={self.plan.evict_period} "
                f"(injected: {self.injected_delay} delay cycles, "
                f"{self.deferrals} deferrals, "
                f"{self.forced_evictions} forced evictions)"
            )
        return out + self.inner.debug_transients()

    # -- perturbed operations ----------------------------------------------

    def load(
        self,
        core_id: int,
        addr: int,
        sync: bool = False,
        ticketed: bool = False,
        acquire: bool = False,
    ) -> Access:
        deferred, ticketed = self._defer(core_id, ticketed)
        if deferred is not None:
            return deferred
        return self._jitter(self.inner.load(core_id, addr, sync, ticketed, acquire))

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
        ticketed: bool = False,
    ) -> Access:
        deferred, ticketed = self._defer(core_id, ticketed)
        if deferred is not None:
            return deferred
        return self._jitter(
            self.inner.store(core_id, addr, value, sync, release, ticketed)
        )

    def rmw(
        self,
        core_id: int,
        addr: int,
        fn: Callable[[int], int | None],
        release: bool = False,
        ticketed: bool = False,
        acquire: bool = False,
    ) -> Access:
        deferred, ticketed = self._defer(core_id, ticketed)
        if deferred is not None:
            return deferred
        return self._jitter(
            self.inner.rmw(core_id, addr, fn, release, ticketed, acquire)
        )

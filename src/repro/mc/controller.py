"""The model checker's scheduling hook: gated cores and their controller.

A :class:`GatedCore` *gates* before issuing a visible memory operation
(loads, stores, RMWs, self-invalidations, and every individual spin
probe): instead of touching the protocol it calls
:meth:`ScheduleController.arrive` with a continuation and goes quiet.
The gate is :meth:`GatedCore._gated`, installed in the core's handler
table, so a retry's re-issue (a direct call) never gates.
Draining the event queue then reaches quiescence with every unfinished
core either parked here or asleep on a protocol subscription — at which
point the caller picks one parked core, :meth:`~ScheduleController.release`\\ s
it, and drains again.  Exactly one core performs protocol work per
release, which is what lets the model checker serialize, attribute, and
enumerate interleavings of visible operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.cpu import isa
from repro.cpu.core import Core


@dataclass
class GatedOp:
    """One core parked at a decision point: its pending op + continuation."""

    core: GatedCore
    op: object  # the ISA operation about to issue
    cont: Callable[[object], None]  # called with ``op`` once released


class GatedCore(Core):
    """A :class:`~repro.cpu.core.Core` that parks at every visible
    operation until its :class:`ScheduleController` releases it."""

    #: Operations whose issue is a decision point.  ``WaitLoad`` is gated
    #: per probe in :meth:`_spin_probe` instead, so every probe of a spin
    #: loop is its own decision point.
    GATED_OPS = (isa.Load, isa.Store, isa.Cas, isa.Fai, isa.Swap, isa.SelfInvalidate)

    def __init__(self, core_id: int, sim, protocol, controller: ScheduleController):
        super().__init__(core_id, sim, protocol)
        self.controller = controller
        # One-shot token set by ScheduleController.release: lets the
        # parked continuation pass the gate exactly once.
        self._release_granted = False
        # The issuing method of each gated op class, behind the gate.
        self._ungated = {klass: self._handlers[klass] for klass in self.GATED_OPS}
        for klass in self.GATED_OPS:
            self._handlers[klass] = self._gated

    def _gate(self, op, cont: Callable[[object], None]) -> bool:
        """Park at a scheduling decision point; True if parked.

        :meth:`ScheduleController.release` grants a one-shot token and
        reschedules ``cont(op)``, which then passes this gate and issues.
        """
        if self._release_granted:
            self._release_granted = False
            return False
        self.wait_reason = "schedule-gate"
        self.blocked_since = self.sim.now
        self.controller.arrive(self, op, cont)
        return True

    def _gated(self, op) -> None:
        if not self._gate(op, self._gated):
            self._ungated[op.__class__](op)

    def _spin_probe(self, op: isa.WaitLoad) -> None:
        if not self._gate(op, self._spin_probe):
            super()._spin_probe(op)


class ScheduleController:
    """Collects gated cores and releases them one at a time."""

    def __init__(self) -> None:
        self._parked: dict[int, GatedOp] = {}
        #: Total arrivals observed (diagnostic).
        self.arrivals = 0

    def arrive(self, core: GatedCore, op, cont: Callable[[object], None]) -> None:
        """Called by a core at a visible-operation boundary."""
        if core.core_id in self._parked:
            raise RuntimeError(
                f"core {core.core_id} gated twice without a release"
            )
        self._parked[core.core_id] = GatedOp(core=core, op=op, cont=cont)
        self.arrivals += 1

    @property
    def parked(self) -> dict[int, GatedOp]:
        """The currently parked cores, keyed by core id (do not mutate)."""
        return self._parked

    def release(self, core_id: int) -> GatedOp:
        """Un-park ``core_id``: grant its one-shot token and reschedule its
        continuation.  The caller must drain the event queue afterwards."""
        gated = self._parked.pop(core_id)
        core = gated.core
        core._release_granted = True
        core.sim.call_after(0, gated.cont, gated.op)
        return gated

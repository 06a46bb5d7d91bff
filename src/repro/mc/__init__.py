"""Model checking: exhaustive interleaving exploration for the protocols.

The subsystem runs small litmus workloads (:mod:`repro.mc.litmus`) under
*controlled* scheduling: every core is a
:class:`~repro.mc.controller.GatedCore` that parks at each visible
memory-operation boundary, and a
:class:`~repro.mc.controller.ScheduleController` decides which core
issues next.  The exploration driver (:mod:`repro.mc.explorer`) performs
a stateless DFS over schedules with dynamic partial-order reduction
(persistent/sleep sets keyed on cache-line conflicts) and CHESS-style
preemption bounding; safety oracles (:mod:`repro.mc.oracle`)
check runtime coherence invariants, per-execution conformance against an
interpreter-computed sequentially-consistent reference, final memory,
and each litmus test's postcondition.  On violation the failing schedule
is minimized (:mod:`repro.mc.minimize`) and exported as a replayable
artifact (:mod:`repro.mc.artifact`).
"""

from repro.mc.controller import ScheduleController
from repro.mc.explorer import ExploreResult, explore
from repro.mc.litmus import CORPUS, LitmusTest
from repro.mc.runner import Execution, Violation, run_schedule

__all__ = [
    "CORPUS",
    "Execution",
    "ExploreResult",
    "LitmusTest",
    "ScheduleController",
    "Violation",
    "explore",
    "run_schedule",
]

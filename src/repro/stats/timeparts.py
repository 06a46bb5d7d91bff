"""Execution-time decomposition.

The paper's figures stack per-run execution time into: non-synchronization
compute (the dummy work between kernel iterations), kernel compute (1 cycle
per instruction, including spinning hits), memory stall (for both data and
synchronization accesses inside the kernel), software backoff, hardware
backoff (DeNovoSync only), and barrier stall (time in the end-of-kernel
barrier, indicating load imbalance).

Accounting is hot (several adds per simulated memory operation), so the
breakdown is a fixed-size int list indexed by the component's ordinal
(``TimeComponent.<member>.idx``) rather than a ``Counter`` keyed by enum —
``Enum.__hash__`` is a Python-level hash of the member name and dominated
profiles.  The public dict-shaped views are unchanged.
"""

from __future__ import annotations

from enum import Enum


class TimeComponent(Enum):
    NON_SYNCH = "non-synch"
    COMPUTE = "compute"
    MEMORY_STALL = "memory stall"
    SW_BACKOFF = "sw backoff"
    HW_BACKOFF = "hw backoff"
    BARRIER_STALL = "barrier"


#: The members as module constants, the spelling simulation code uses (an
#: ``Enum.MEMBER`` load is never specialized on CPython 3.11).
NON_SYNCH, COMPUTE, MEMORY_STALL, SW_BACKOFF, HW_BACKOFF, BARRIER_STALL = TimeComponent


#: Dense ordinal used to index the per-component arrays.
for _i, _component in enumerate(TimeComponent):
    _component.idx = _i
_NUM_COMPONENTS = len(TimeComponent)


class TimeBreakdown:
    """Per-core cycle accounting by :class:`TimeComponent`."""

    __slots__ = ("_cycles",)

    def __init__(self) -> None:
        self._cycles: list[int] = [0] * _NUM_COMPONENTS

    def add(self, component: TimeComponent, cycles: int) -> None:
        if cycles < 0:
            raise ValueError(f"negative cycles for {component}: {cycles}")
        self._cycles[component.idx] += cycles

    def get(self, component: TimeComponent) -> int:
        return self._cycles[component.idx]

    def total(self) -> int:
        return sum(self._cycles)

    def as_dict(self) -> dict[str, int]:
        cycles = self._cycles
        return {c.value: cycles[c.idx] for c in TimeComponent}

    def merged_with(self, other: "TimeBreakdown") -> "TimeBreakdown":
        # Fixed-size arrays make the merge trivially total: every
        # component survives, including ones tracked at zero cycles.
        merged = TimeBreakdown()
        merged._cycles = [a + b for a, b in zip(self._cycles, other._cycles)]
        return merged

    @staticmethod
    def average(breakdowns: list["TimeBreakdown"]) -> dict[str, float]:
        """Mean cycles per component across cores (the figures' bar height)."""
        if not breakdowns:
            return {c.value: 0.0 for c in TimeComponent}
        n = len(breakdowns)
        return {
            c.value: sum(b.get(c) for b in breakdowns) / n for c in TimeComponent
        }

"""Greedy counterexample minimization.

A violating schedule found by the explorer usually carries incidental
choices (default-policy tail steps, unrelated cores' progress).  The
minimizer shrinks it by *tolerant* replay — forced choices that are not
enabled are skipped rather than failing — accepting a candidate schedule
only if it still triggers a violation of the same kind:

1. **Prefix truncation**: find the shortest prefix that reproduces (the
   default policy fills in the rest of the execution).
2. **Delta deletion**: repeatedly drop single choices while the
   violation persists, to a fixpoint.

Both phases only ever *remove* choices, so the result is a subsequence
of the original schedule and replays deterministically.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.mc.litmus import LitmusTest
from repro.mc.runner import Choice, Execution, run_schedule


def reproduces(
    test: LitmusTest,
    protocol_name: str,
    schedule: Sequence[Choice],
    kind: str,
) -> Execution | None:
    """Tolerantly replay ``schedule``; return the execution if it ends in
    a violation of ``kind``, else None."""
    execution = run_schedule(
        test, protocol_name, forced=schedule, tolerant=True
    )
    if any(v.kind == kind for v in execution.violations):
        return execution
    return None


def minimize_schedule(
    test: LitmusTest,
    protocol_name: str,
    schedule: Sequence[Choice],
    kind: str,
) -> tuple[list[Choice], Execution]:
    """Shrink ``schedule`` while a ``kind`` violation still reproduces.

    Returns ``(minimized_schedule, execution)`` where ``execution`` is the
    replay of the minimized schedule.  If the input schedule does not
    reproduce at all (it should), it is returned unchanged with its
    replay execution.
    """
    schedule = list(schedule)
    best = reproduces(test, protocol_name, schedule, kind)
    if best is None:
        return schedule, run_schedule(
            test, protocol_name, forced=schedule, tolerant=True
        )

    # Phase 1: shortest reproducing prefix (linear scan — schedules are
    # litmus-sized and reproduction need not be monotone in the length).
    for length in range(len(schedule) + 1):
        execution = reproduces(test, protocol_name, schedule[:length], kind)
        if execution is not None:
            schedule = schedule[:length]
            best = execution
            break

    # Phase 2: single-choice deletion to a fixpoint.
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(schedule):
            candidate = schedule[:i] + schedule[i + 1:]
            execution = reproduces(test, protocol_name, candidate, kind)
            if execution is not None:
                schedule = candidate
                best = execution
                changed = True
            else:
                i += 1
    return schedule, best

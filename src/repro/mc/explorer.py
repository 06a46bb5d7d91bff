"""Stateless DFS over schedules with DPOR and preemption bounding.

The explorer repeatedly calls :func:`repro.mc.runner.run_schedule` with a
forced prefix, maintaining one :class:`Frame` per decision point of the
current path:

* **Persistent/backtrack sets** (Flanagan–Godefroid dynamic partial-order
  reduction): after each execution, for every step *j* find the latest
  earlier step *i* by a different actor that is *dependent* with it
  (same cache line, at least one side mutating — see
  :func:`repro.mc.runner.dependent`); step *j*'s actor must also be tried
  at decision *i*.  If it was not enabled there, conservatively add all
  enabled choices.
* **Sleep sets**: when the DFS moves from one branch of a frame to the
  next, the explored choice goes to sleep; executions inherit the sleep
  set forward (waking entries on dependent steps) and abandon a
  continuation whose runnable choices are all asleep (``sleep_cut`` —
  its behaviors were already explored).
* **Preemption bounding** (CHESS-style): a branch choice that preempts —
  switches away from the previous core while it is still runnable — is
  only taken while the path's preemption count is below the bound, so
  exploration effort concentrates on few-preemption schedules.  With
  ``bound=None`` exploration is exhaustive (up to DPOR equivalence).
* **Eviction branches**: enabled eviction choices (environment actions,
  see :mod:`repro.mc.litmus`) are added to each new frame's backtrack set
  outright — they race with everything on their line by construction.

Exploration is *anytime*: ``max_schedules`` truncates the search while
keeping every result found so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.mc.litmus import LitmusTest
from repro.mc.runner import (
    Choice,
    Execution,
    StepInfo,
    dependent,
    run_schedule,
)


@dataclass
class Frame:
    """One decision point of the current DFS path."""

    enabled: tuple[Choice, ...]
    info: dict  # choice -> StepInfo, for every enabled choice
    chosen: Choice
    done: set = field(default_factory=set)
    backtrack: set = field(default_factory=set)
    sleep: dict = field(default_factory=dict)  # choice -> StepInfo
    bound_blocked: set = field(default_factory=set)
    last_core_before: int | None = None
    preemptions_before: int = 0

    @property
    def step_info(self) -> StepInfo:
        return self.info[self.chosen]


@dataclass
class ExploreResult:
    """Outcome of exploring one (litmus, protocol, bound) cell."""

    test_name: str
    protocol_name: str
    bound: int | None
    executions: int = 0
    sleep_cuts: int = 0
    bound_pruned: int = 0
    max_depth: int = 0
    #: Naive interleaving count: multinomial over the per-core visible-op
    #: counts of the first (default-schedule) execution.  The DPOR pruning
    #: factor reported per cell is ``naive_estimate / executions``.
    naive_estimate: int = 0
    truncated: bool = False
    violation: object | None = None  # first Violation found, if any
    violating_schedule: list | None = None
    violating_execution: Execution | None = None

    @property
    def pruning_factor(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.naive_estimate / self.executions

    def describe(self) -> str:
        status = (
            f"VIOLATION {self.violation.kind}" if self.violation else "ok"
        )
        return (
            f"{self.test_name:10s} {self.protocol_name:12s} "
            f"bound={self.bound if self.bound is not None else '∞'}: "
            f"{self.executions} executions (naive ~{self.naive_estimate}, "
            f"pruning {self.pruning_factor:.1f}x, {self.sleep_cuts} sleep "
            f"cuts, {self.bound_pruned} bound-pruned) — {status}"
        )


def _naive_interleavings(op_counts: dict[int, int]) -> int:
    """Multinomial: interleavings of the per-core visible-op sequences."""
    total = sum(op_counts.values())
    result = 1
    remaining = total
    for count in op_counts.values():
        result *= math.comb(remaining, count)
        remaining -= count
    return result


def _frames_from(execution: Execution, start: int) -> list[Frame]:
    """Build frames for the steps of ``execution`` from index ``start``."""
    frames = []
    for step in execution.steps[start:]:
        frame = Frame(
            enabled=step.enabled,
            info=step.enabled_info,
            chosen=step.choice,
            last_core_before=step.last_core_before,
            preemptions_before=0,  # filled below by the caller
        )
        frame.done.add(step.choice)
        # Environment actions are explored outright: an eviction races
        # with every access to its line by construction.
        for choice in step.enabled:
            if choice[0] == "evict":
                frame.backtrack.add(choice)
        frames.append(frame)
    return frames


def _update_races(frames: list[Frame]) -> None:
    """DPOR race analysis over the whole path (idempotent set updates)."""
    for j in range(len(frames)):
        info_j = frames[j].step_info
        for i in range(j - 1, -1, -1):
            info_i = frames[i].step_info
            if info_i.actor == info_j.actor:
                continue
            if not dependent(info_i, info_j):
                continue
            # Latest racing step found: step j's actor must also run at
            # decision i (or, if it was not enabled there, everything).
            candidate = info_j.actor
            frame = frames[i]
            if candidate in frame.enabled and candidate not in frame.sleep:
                frame.backtrack.add(candidate)
            else:
                frame.backtrack.update(
                    choice for choice in frame.enabled
                    if choice not in frame.sleep
                )
            break


def _preemptive(frame: Frame, choice: Choice) -> bool:
    return (
        choice[0] == "core"
        and frame.last_core_before is not None
        and choice[1] != frame.last_core_before
        and ("core", frame.last_core_before) in frame.enabled
    )


def explore(
    test: LitmusTest,
    protocol_name: str,
    *,
    bound: int | None = 2,
    max_schedules: int = 20_000,
    on_execution: Callable[[Execution], None] | None = None,
) -> ExploreResult:
    """Explore ``test`` under ``protocol_name`` up to ``bound`` preemptions.

    Stops at the first violation (after recording its schedule); otherwise
    runs until the DFS is exhausted or ``max_schedules`` executions ran.
    ``on_execution`` observes every completed, violation-free execution
    (the formal divergence oracle replays them against the model).
    """
    result = ExploreResult(
        test_name=test.name, protocol_name=protocol_name, bound=bound,
    )

    path: list[Frame] = []
    forced: list[Choice] = []
    branch_sleep: dict = {}

    while True:
        execution = run_schedule(
            test, protocol_name, forced=forced, branch_sleep=branch_sleep,
        )
        result.executions += 1
        if result.naive_estimate == 0 and execution.op_counts:
            result.naive_estimate = _naive_interleavings(execution.op_counts)
        if execution.sleep_cut:
            result.sleep_cuts += 1
        result.max_depth = max(result.max_depth, len(execution.steps))

        if execution.violations:
            result.violation = execution.violations[0]
            result.violating_schedule = list(execution.schedule)
            result.violating_execution = execution
            return result
        if on_execution is not None and execution.completed:
            on_execution(execution)

        # Extend the path with frames for the new suffix and set their
        # preemption counters from the executed steps.
        new_frames = _frames_from(execution, len(path))
        preemptions = path[-1].preemptions_before if path else 0
        if path:
            preemptions += 1 if _preemptive(path[-1], path[-1].chosen) else 0
        for frame, step in zip(new_frames, execution.steps[len(path):]):
            frame.preemptions_before = preemptions
            if step.preemptive:
                preemptions += 1
        path.extend(new_frames)
        _update_races(path)

        if result.executions >= max_schedules:
            result.truncated = True
            return result

        # Backtrack: find the deepest frame with an unexplored candidate.
        while path:
            frame = path[-1]
            candidates = sorted(
                choice
                for choice in frame.backtrack
                if choice not in frame.done
                and choice not in frame.sleep
                and choice not in frame.bound_blocked
            )
            chosen_next = None
            for candidate in candidates:
                if (
                    bound is not None
                    and _preemptive(frame, candidate)
                    and frame.preemptions_before >= bound
                ):
                    frame.bound_blocked.add(candidate)
                    result.bound_pruned += 1
                    continue
                chosen_next = candidate
                break
            if chosen_next is None:
                path.pop()
                continue
            # Put the just-finished branch to sleep and take the new one.
            frame.sleep[frame.chosen] = frame.info[frame.chosen]
            frame.chosen = chosen_next
            frame.done.add(chosen_next)
            forced = [f.chosen for f in path]
            branch_sleep = dict(frame.sleep)
            break
        else:
            return result  # DFS exhausted

"""Picklable (litmus × protocol × bound) cells for parallel exploration.

The ``mc`` CLI target fans its cells out through
:func:`repro.harness.parallel.run_tasks`; each cell is hermetic (the
explorer builds its own simulator per schedule), so a cell is just a
value object naming what to explore.  Violation handling — schedule
minimization and artifact export — happens inside the worker too, so the
outcome that travels back across the process boundary is plain data.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class McCell:
    """One model-checking work item."""

    test_name: str
    protocol: str
    bound: int | None = 2
    max_schedules: int = 20_000
    #: Directory for counterexample artifacts (None: do not export).
    out_dir: str | None = None


@dataclass
class CellOutcome:
    """Picklable summary of one explored cell."""

    test_name: str
    protocol: str
    bound: int | None
    executions: int
    naive_estimate: int
    sleep_cuts: int
    bound_pruned: int
    max_depth: int
    truncated: bool
    violation_kind: str | None = None
    violation_message: str | None = None
    schedule_len: int = 0
    minimized_len: int = 0
    minimized_schedule: list | None = None
    artifact_path: str | None = None

    @property
    def ok(self) -> bool:
        return self.violation_kind is None

    @property
    def pruning_factor(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.naive_estimate / self.executions

    def describe(self) -> str:
        bound = self.bound if self.bound is not None else "∞"
        line = (
            f"{self.test_name:10s} {self.protocol:12s} bound={bound}: "
            f"{self.executions:5d} executions (naive ~{self.naive_estimate}, "
            f"pruning {self.pruning_factor:.1f}x)"
        )
        if self.truncated:
            line += " [truncated]"
        if self.ok:
            return line + " — ok"
        line += (
            f" — VIOLATION [{self.violation_kind}] {self.violation_message}"
            f" (schedule {self.schedule_len} -> {self.minimized_len} choices"
        )
        if self.artifact_path:
            line += f", artifact {self.artifact_path}"
        return line + ")"


def run_cell(cell: McCell) -> CellOutcome:
    """Explore one cell (worker-process entry point)."""
    from repro.mc.artifact import export_counterexample
    from repro.mc.explorer import explore
    from repro.mc.litmus import CORPUS
    from repro.mc.minimize import minimize_schedule

    test = CORPUS[cell.test_name]
    result = explore(
        test, cell.protocol, bound=cell.bound, max_schedules=cell.max_schedules
    )
    outcome = CellOutcome(
        test_name=cell.test_name,
        protocol=cell.protocol,
        bound=cell.bound,
        executions=result.executions,
        naive_estimate=result.naive_estimate,
        sleep_cuts=result.sleep_cuts,
        bound_pruned=result.bound_pruned,
        max_depth=result.max_depth,
        truncated=result.truncated,
    )
    if result.violation is None:
        return outcome

    outcome.violation_kind = result.violation.kind
    outcome.violation_message = result.violation.message
    outcome.schedule_len = len(result.violating_schedule)
    minimized, execution = minimize_schedule(
        test, cell.protocol, result.violating_schedule,
        result.violation.kind,
    )
    outcome.minimized_len = len(minimized)
    outcome.minimized_schedule = [list(choice) for choice in minimized]
    if cell.out_dir is not None:
        violation = next(
            v for v in execution.violations if v.kind == result.violation.kind
        )
        path = export_counterexample(
            cell.out_dir,
            test_name=cell.test_name,
            protocol_name=cell.protocol,
            bound=cell.bound,
            schedule=minimized,
            violation=violation,
            execution=execution,
        )
        outcome.artifact_path = str(path)
    return outcome

"""Divergence oracle: replay mc litmus executions through the model.

For every completed, violation-free execution the mc explorer finds
(:func:`repro.mc.explorer.explore` with an ``on_execution`` observer),
this module replays the execution's visible-operation trace through the
protocol's guarded-action model and fails on any divergence:

* an implementation step for which no model rule fires from the model's
  current state (``model-divergence``);
* a read that observed a value the model says the core cannot hold;
* an RMW whose post-value contradicts the ISA op's semantics applied to
  the model's memory;
* a model invariant (single-owner-registration, SWMR, data-value)
  violated mid-replay;
* final model memory differing from the execution's final memory.

Only *synchronization* addresses (any address touched by a sync access
or an RMW in the execution) are tracked: data words are filled
line-at-a-time by DeNovo (events the per-word model never sees), while
sync words are line-padded by ``alloc_sync`` and therefore only change
state through their own visible operations — exactly the footprint the
stable-state model describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu import isa
from repro.formal.model import (
    GRANULARITY_LINE,
    INV_AT_MOST_ONE_IN,
    INV_EXCLUSIVE_AGAINST,
    INV_VALUE_COHERENCE,
    FormalModel,
)
from repro.mc.explorer import explore
from repro.mc.litmus import CORPUS, LitmusTest
from repro.mc.runner import Execution
from repro.sanitize.findings import (
    KIND_MODEL_DIVERGENCE,
    SEVERITY_ERROR,
    Finding,
)


@dataclass
class OracleStats:
    """Deterministic replay statistics for one (protocol, corpus) cell."""

    tests: int = 0
    executions: int = 0
    events: int = 0
    value_checks: int = 0

    def to_dict(self) -> dict:
        return {
            "tests": self.tests,
            "executions": self.executions,
            "events": self.events,
            "value_checks": self.value_checks,
        }


class _Replay:
    """Model state mirrored alongside one execution's replay."""

    def __init__(self, execution: Execution, model: FormalModel) -> None:
        self.execution = execution
        self.model = model
        self.amap = execution.instance.allocator.amap
        self.cores = len(execution.instance.programs)
        self.line_units = model.granularity == GRANULARITY_LINE
        self.tracked = sorted(
            {
                record.addr
                for step in execution.steps
                for record in step.records
                if record.kind == "rmw"
                or (record.sync and record.kind in ("load", "store"))
            }
        )
        self.units: dict = {}
        for addr in self.tracked:
            self.units.setdefault(self._unit_of(addr), []).append(addr)
        self.region_of = {
            addr: alloc.region.region_id
            for alloc in execution.instance.allocator.allocations
            for addr in alloc
        }
        initial = execution.instance.initial_values
        self.state = {
            unit: [model.initial] * self.cores for unit in self.units
        }
        self.mem = {addr: initial.get(addr, 0) for addr in self.tracked}
        self.val: dict = {}
        self.findings: list = []
        self.events = 0
        self.value_checks = 0

    def _unit_of(self, addr: int):
        return self.amap.line_of(addr) if self.line_units else addr

    def _fail(self, message: str, step_index: int, **details: object) -> None:
        execution = self.execution
        self.findings.append(
            Finding(
                kind=KIND_MODEL_DIVERGENCE,
                severity=SEVERITY_ERROR,
                message=(
                    f"{execution.protocol_name}/{execution.test_name}: "
                    f"{message}"
                ),
                site=f"mc/{execution.test_name}",
                details={
                    "protocol": execution.protocol_name,
                    "test": execution.test_name,
                    "model": self.model.name,
                    "step": step_index,
                    "schedule": [list(c) for c in execution.schedule],
                    **details,
                },
            )
        )

    # -- one model event ---------------------------------------------------

    def _apply(self, event: str, unit, core: int, step_index: int):
        """Fire ``event`` by ``core`` on ``unit``; returns the rule."""
        states = self.state[unit]
        pre = states[core]
        others = tuple(s for o, s in enumerate(states) if o != core)
        rule = self.model.match_rule(event, pre, others)
        if rule is None:
            self._fail(
                f"step {step_index}: no {self.model.name} rule fires for "
                f"{event} by core {core} from state {pre!r} "
                f"(others {list(others)})",
                step_index,
                event=event,
                core=core,
                pre=pre,
                others=list(others),
            )
            return None
        self.events += 1
        states[core] = rule.post
        for other in range(self.cores):
            if other == core:
                continue
            for effect in rule.others:
                if states[other] == effect.when:
                    states[other] = effect.to
                    if effect.to == self.model.initial:
                        for addr in self.units[unit]:
                            self.val.pop((other, addr), None)
                    break
        if rule.post == self.model.initial and not rule.writes_value:
            for addr in self.units[unit]:
                self.val.pop((core, addr), None)
        return rule

    def _check_invariants(self, unit, step_index: int) -> None:
        states = self.state[unit]
        for inv in self.model.invariants:
            if inv.kind == INV_AT_MOST_ONE_IN:
                holders = [
                    c for c, s in enumerate(states) if s in inv.states
                ]
                if len(holders) > 1:
                    self._fail(
                        f"step {step_index}: invariant {inv.name!r} violated "
                        f"at unit {unit}: cores {holders} all in "
                        f"{'/'.join(inv.states)}",
                        step_index,
                        invariant=inv.name,
                        unit=unit,
                    )
            elif inv.kind == INV_EXCLUSIVE_AGAINST:
                for core, s in enumerate(states):
                    if s not in inv.states:
                        continue
                    clash = [
                        o
                        for o, t in enumerate(states)
                        if o != core and t in inv.other_states
                    ]
                    if clash:
                        self._fail(
                            f"step {step_index}: invariant {inv.name!r} "
                            f"violated at unit {unit}: core {core} in {s} "
                            f"with copies at cores {clash}",
                            step_index,
                            invariant=inv.name,
                            unit=unit,
                        )
            elif inv.kind == INV_VALUE_COHERENCE:
                for addr in self.units[unit]:
                    for core, s in enumerate(states):
                        held = self.val.get((core, addr))
                        if s in inv.states and held is not None and (
                            held != self.mem[addr]
                        ):
                            self._fail(
                                f"step {step_index}: invariant {inv.name!r} "
                                f"violated: core {core} in {s} holds "
                                f"{held} for addr {addr}, memory has "
                                f"{self.mem[addr]}",
                                step_index,
                                invariant=inv.name,
                                addr=addr,
                            )

    # -- record replay -----------------------------------------------------

    def _rmw_expected(self, op: object, old: int) -> int | None:
        """Post-RMW memory value per the ISA op's semantics, or None."""
        if isinstance(op, isa.Cas):
            return op.new if old == op.expected else old
        if isinstance(op, isa.Fai):
            return old + op.delta
        if isinstance(op, isa.Swap):
            return op.value
        return None

    def _replay_record(self, record, op: object, step_index: int) -> None:
        if record.kind == "selfinv":
            self._replay_selfinv(record, step_index)
            return
        addr = record.addr
        unit = self._unit_of(addr)
        if unit not in self.units:
            return  # data address: outside the tracked sync footprint
        core = record.core
        if record.kind == "load":
            event = "SyncRead" if record.sync else "Load"
            rule = self._apply(event, unit, core, step_index)
            if rule is None:
                return
            self.value_checks += 1
            if rule.reads_memory:
                if record.value != self.mem[addr]:
                    self._fail(
                        f"step {step_index}: core {core} {event} of addr "
                        f"{addr} observed {record.value}, model memory has "
                        f"{self.mem[addr]}",
                        step_index,
                        addr=addr,
                        observed=record.value,
                        expected=self.mem[addr],
                    )
                self.val[(core, addr)] = record.value
            else:
                held = self.val.get((core, addr))
                if held is not None and record.value != held:
                    self._fail(
                        f"step {step_index}: core {core} {event} hit on addr "
                        f"{addr} observed {record.value}, its model copy "
                        f"holds {held}",
                        step_index,
                        addr=addr,
                        observed=record.value,
                        expected=held,
                    )
        elif record.kind == "store":
            event = "SyncWrite" if record.sync else "Store"
            rule = self._apply(event, unit, core, step_index)
            if rule is None:
                return
            self.mem[addr] = record.value
            self.val[(core, addr)] = record.value
        elif record.kind == "rmw":
            rule = self._apply("Rmw", unit, core, step_index)
            if rule is None:
                return
            expected = self._rmw_expected(op, self.mem[addr])
            self.value_checks += 1
            if expected is not None and record.value != expected:
                self._fail(
                    f"step {step_index}: core {core} RMW of addr {addr} left "
                    f"{record.value}, ISA semantics over model memory "
                    f"require {expected}",
                    step_index,
                    addr=addr,
                    observed=record.value,
                    expected=expected,
                )
            self.mem[addr] = record.value
            self.val[(core, addr)] = record.value
        self._check_invariants(unit, step_index)

    def _replay_selfinv(self, record, step_index: int) -> None:
        core = record.core
        for unit, addrs in self.units.items():
            if self.state[unit][core] == self.model.initial:
                continue
            covered = record.flush_all or any(
                self.region_of.get(addr) in record.regions for addr in addrs
            )
            if not covered:
                continue
            if self._apply("SelfInv", unit, core, step_index) is not None:
                self._check_invariants(unit, step_index)

    def _replay_evict(self, core: int, line: int, step_index: int) -> None:
        for unit, addrs in self.units.items():
            unit_line = unit if self.line_units else self.amap.line_of(addrs[0])
            if unit_line != line:
                continue
            if self.state[unit][core] == self.model.initial:
                continue  # force_evict of a non-resident line is a no-op
            if self._apply("Evict", unit, core, step_index) is not None:
                self._check_invariants(unit, step_index)

    def run(self) -> list:
        for step in self.execution.steps:
            if step.choice[0] == "evict":
                self._replay_evict(step.choice[1], step.choice[2], step.index)
            else:
                for record in step.records:
                    self._replay_record(record, step.op, step.index)
            if self.findings:
                return self.findings  # state is garbage past a divergence
        for addr in self.tracked:
            final = self.execution.final_memory.get(addr)
            if final != self.mem[addr]:
                self._fail(
                    f"final memory of addr {addr} is {final}, model replay "
                    f"ends at {self.mem[addr]}",
                    len(self.execution.steps),
                    addr=addr,
                    observed=final,
                    expected=self.mem[addr],
                )
        return self.findings


def replay_corpus(
    protocol_name: str,
    model: FormalModel,
    tests: dict[str, LitmusTest] | None = None,
    *,
    bound: int = 1,
    max_schedules: int = 300,
) -> tuple[list, OracleStats]:
    """Replay every corpus test's executions against ``model``.

    Returns (findings, stats).  Stops collecting further divergences for
    a test once one is found (replay state past a divergence is
    meaningless); mc's own safety violations are surfaced too, since a
    protocol that fails its litmus test cannot be compared to the model.
    """
    tests = CORPUS if tests is None else tests
    findings: list = []
    stats = OracleStats()
    for name in sorted(tests):
        stats.tests += 1
        findings.extend(
            _replay_test(name, tests[name], protocol_name, model, stats,
                         bound=bound, max_schedules=max_schedules)
        )
    return findings, stats


def _replay_test(
    name: str,
    test: LitmusTest,
    protocol_name: str,
    model: FormalModel,
    stats: OracleStats,
    *,
    bound: int,
    max_schedules: int,
) -> list:
    cell_findings: list = []

    def observe(execution: Execution) -> None:
        stats.executions += 1
        if cell_findings:
            return
        replay = _Replay(execution, model)
        cell_findings.extend(replay.run())
        stats.events += replay.events
        stats.value_checks += replay.value_checks

    result = explore(
        test,
        protocol_name,
        bound=bound,
        max_schedules=max_schedules,
        on_execution=observe,
    )
    if result.violation is not None:
        cell_findings.insert(
            0,
            Finding(
                kind=KIND_MODEL_DIVERGENCE,
                severity=SEVERITY_ERROR,
                message=(
                    f"{protocol_name}/{name}: mc found a safety "
                    f"violation ({result.violation.kind}), divergence "
                    f"replay is moot: {result.violation.message}"
                ),
                site=f"mc/{name}",
                details={"protocol": protocol_name, "test": name},
            ),
        )
    return cell_findings

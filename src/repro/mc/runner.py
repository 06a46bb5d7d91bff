"""Controlled execution of one litmus test under one schedule.

:func:`run_schedule` builds a litmus instance whose cores are
:class:`~repro.mc.controller.GatedCore` instances, parking at every
visible operation, and serializes the execution into *steps*:
at each quiescent point every unfinished core is either parked at its
next visible operation or asleep on a protocol subscription; the runner
picks one **choice** — release a parked core, or force-evict a cache
line as an environment action — executes it, and drains the event queue
back to quiescence.  A schedule is the sequence of choice labels, which
is all that is needed to reproduce an execution deterministically.

Choice labels:

* ``("core", core_id)`` — release core ``core_id``'s pending operation;
* ``("evict", core_id, line)`` — force-evict ``line`` from ``core_id``'s
  L1 (only offered for the litmus test's declared ``evict_targets``,
  within its ``evict_budget``).

A demonic scheduler could spin a waiter forever, so enabled sets apply a
*spin fairness* filter: a core whose pending operation is a spin probe is
deferred after :data:`SPIN_RETRY_LIMIT` consecutive probes of the same line,
until some write (store/RMW/evict) touches that line again.  If only
deferred spinners remain runnable the execution is declared a livelock;
if no core is runnable at all with unfinished cores, a deadlock.  Both
violations carry a rendered :class:`~repro.harness.diagnostics.DiagnosticDump`.
An execution longer than :data:`MAX_STEPS` choices, or a drain firing
more than :data:`MAX_DRAIN_EVENTS` events, is a ``step-limit`` violation.

Safety oracles run on every completed execution: full-level runtime
coherence invariants (armed via ``SystemConfig.invariant_level``),
per-access conformance against an interpreter-computed sequentially
consistent reference, a final-memory sweep over the footprint, and the
litmus test's own postcondition (see :mod:`repro.mc.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.config import config_for_cores
from repro.cpu import isa
from repro.mc.controller import GatedCore, ScheduleController
from repro.mc.litmus import LitmusInstance, LitmusTest
from repro.mem.address import AddressMap
from repro.protocols import make_protocol
from repro.protocols.invariants import InvariantViolation
from repro.sim.engine import Simulator
from repro.trace.events import AccessRecord
from repro.trace.recorder import TracingProtocol

Choice = tuple  # ("core", core_id) | ("evict", core_id, line)

#: Consecutive probes of one line after which a spinning core is deferred.
SPIN_RETRY_LIMIT = 3
#: Scheduling choices after which an execution is a ``step-limit`` violation.
MAX_STEPS = 600
#: Events one drain back to quiescence may fire before ``step-limit``.
MAX_DRAIN_EVENTS = 200_000


@dataclass(frozen=True)
class StepInfo:
    """What a (potential) step touches, for the dependence relation.

    ``lines`` is the set of cache lines accessed (None = all lines, the
    flush-all self-invalidation).  ``mutating`` marks accesses that can
    change globally visible protocol state: writes, RMWs, evictions, and
    *sync* reads (a DeNovo sync read registers — it steals state).
    """

    actor: Choice
    core: int | None
    lines: frozenset | None
    mutating: bool


def dependent(a: StepInfo, b: StepInfo) -> bool:
    """The DPOR dependence relation: same-core program order, or a
    cache-line conflict with at least one mutating access."""
    if a.core is not None and a.core == b.core:
        return True
    if not (a.mutating or b.mutating):
        return False
    if a.lines is None or b.lines is None:
        return True
    return bool(a.lines & b.lines)


@dataclass
class Violation:
    """One safety-oracle failure."""

    kind: str  # invariant | conformance | final-memory | postcondition |
    #            deadlock | livelock | step-limit
    message: str
    dump: str | None = None  # rendered DiagnosticDump, if any

    def describe(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class Step:
    """One executed scheduling choice."""

    index: int
    choice: Choice
    op: object  # the ISA op (None for evict steps)
    info: StepInfo
    #: Fair enabled choices at this decision point (pre-sleep-filter).
    enabled: tuple[Choice, ...]
    #: StepInfo for every enabled choice (for DPOR frames).
    enabled_info: dict
    #: Core that executed the previous core step (None at the start).
    last_core_before: int | None
    preemptive: bool
    #: Trace records produced by this step (usually exactly one).
    records: tuple[AccessRecord, ...]


@dataclass
class Execution:
    """The outcome of one controlled execution."""

    test_name: str
    protocol_name: str
    steps: list[Step]
    violations: list[Violation]
    completed: bool  # every core ran to completion
    sleep_cut: bool  # abandoned: all runnable choices were in the sleep set
    preemptions: int
    op_counts: dict[int, int]  # visible ops executed per core
    final_memory: dict[int, int]
    trace: list[AccessRecord]
    instance: LitmusInstance
    protocol: object  # the TracingProtocol wrapper (in-process use only)
    skipped_forced: int = 0  # tolerant replay: forced choices not enabled

    @property
    def schedule(self) -> list[Choice]:
        return [step.choice for step in self.steps]

    @property
    def ok(self) -> bool:
        return not self.violations


class ScheduleDivergence(RuntimeError):
    """A forced choice was not enabled at replay (internal error unless
    the caller asked for tolerant replay)."""


def _op_info(core_id: int, op, amap: AddressMap, region_lines: dict) -> StepInfo:
    """StepInfo for a core's pending ISA operation."""
    actor = ("core", core_id)
    if isinstance(op, isa.SelfInvalidate):
        if op.flush_all:
            lines: frozenset | None = None
        else:
            lines = frozenset().union(
                *(region_lines.get(region.region_id, frozenset())
                  for region in op.regions)
            ) if op.regions else frozenset()
        # Read-like: reorderable with other reads, conflicts with writes
        # to the invalidated lines (they change what later reads observe).
        return StepInfo(actor=actor, core=core_id, lines=lines, mutating=False)
    line = frozenset((amap.line_of(op.addr),))
    if isinstance(op, (isa.Store, isa.Cas, isa.Fai, isa.Swap)):
        return StepInfo(actor=actor, core=core_id, lines=line, mutating=True)
    if isinstance(op, isa.WaitLoad):
        # Every probe is a sync read: registering (state-stealing) under
        # DeNovo, hence mutating.
        return StepInfo(actor=actor, core=core_id, lines=line, mutating=True)
    if isinstance(op, isa.Load):
        return StepInfo(actor=actor, core=core_id, lines=line, mutating=op.sync)
    raise TypeError(f"unexpected gated op {op!r}")


def _evict_info(core_id: int, line: int) -> StepInfo:
    return StepInfo(
        actor=("evict", core_id, line), core=core_id,
        lines=frozenset((line,)), mutating=True,
    )


def _region_lines(instance: LitmusInstance, amap: AddressMap) -> dict:
    """region_id -> frozenset of cache lines holding its words."""
    lines: dict[int, set] = {}
    for alloc in instance.allocator.allocations:
        bucket = lines.setdefault(alloc.region.region_id, set())
        for addr in alloc:
            bucket.add(amap.line_of(addr))
    return {rid: frozenset(bucket) for rid, bucket in lines.items()}


def _is_write_kind(info: StepInfo, op) -> bool:
    """Steps that can change a spun-on *value* (spin-fairness resets)."""
    if info.actor[0] == "evict":
        return True
    return isinstance(op, (isa.Store, isa.Cas, isa.Fai, isa.Swap))


def run_schedule(
    test: LitmusTest,
    protocol_name: str,
    *,
    forced: Sequence[Choice] = (),
    branch_sleep: dict | None = None,
    tolerant: bool = False,
) -> Execution:
    """Execute ``test`` under ``protocol_name`` with the given schedule.

    ``forced`` pins the first ``len(forced)`` choices (the DFS prefix);
    after that a deterministic default policy continues: keep running the
    last core while it is enabled, else the lowest-id enabled core, never
    an eviction.  ``branch_sleep`` is the DPOR sleep set in force at the
    last forced decision; it is inherited forward (filtered by
    independence with each executed step) and used to prune default
    continuations — if every runnable choice is asleep the execution is
    abandoned with ``sleep_cut`` (its behaviors were already explored).

    With ``tolerant`` a forced choice that is not enabled is skipped
    instead of raising :class:`ScheduleDivergence` (used by schedule
    minimization and counterexample replay).
    """
    config = config_for_cores(test.num_cores, invariant_level="full")
    amap = AddressMap(config)
    instance = test.build(config)
    protocol = TracingProtocol(make_protocol(protocol_name, config, instance.allocator))
    for addr, value in instance.initial_values.items():
        protocol.memory.write(addr, value)

    sim = Simulator()
    controller = ScheduleController()
    cores = [
        GatedCore(core_id, sim, protocol, controller)
        for core_id in range(config.num_cores)
    ]
    for core, program in zip(cores, instance.programs):
        core.start(program)

    region_lines = _region_lines(instance, amap)
    steps: list[Step] = []
    violations: list[Violation] = []
    completed = False
    sleep_cut = False
    skipped_forced = 0
    preemptions = 0
    last_core: int | None = None
    evicts_used = 0
    probes: dict[tuple[int, int], int] = {}  # (core, line) -> consecutive probes
    just_reset = False
    branch_index = max(0, len(forced) - 1)
    active_sleep: dict[Choice, StepInfo] = dict(branch_sleep or {})

    def drain() -> Violation | None:
        try:
            sim.run(max_events=MAX_DRAIN_EVENTS)
        except InvariantViolation as exc:
            return Violation(kind="invariant", message=str(exc))
        except RuntimeError as exc:  # max_events exceeded
            return Violation(kind="step-limit", message=str(exc))
        return None

    def make_dump(reason: str) -> str:
        from repro.harness.diagnostics import build_dump

        return build_dump(sim, cores, protocol, reason).render()

    def spin_deferred(core_id: int, op) -> bool:
        if not isinstance(op, isa.WaitLoad):
            return False
        key = (core_id, amap.line_of(op.addr))
        return probes.get(key, 0) >= SPIN_RETRY_LIMIT

    def fair_enabled() -> dict:
        """Enabled choices (deterministic order) after spin fairness and
        the eviction budget."""
        choices: dict[Choice, StepInfo] = {}
        for core_id in sorted(controller.parked):
            gated = controller.parked[core_id]
            if spin_deferred(core_id, gated.op):
                continue
            choices[("core", core_id)] = _op_info(
                core_id, gated.op, amap, region_lines
            )
        if evicts_used < instance.evict_budget:
            for target_core, target_line in instance.evict_targets:
                if target_line in protocol.debug_resident_lines(target_core):
                    choices[("evict", target_core, target_line)] = _evict_info(
                        target_core, target_line
                    )
        return choices

    violation = drain()  # run to the first quiescent point
    index = 0
    while violation is None:
        if all(core.done for core in cores):
            completed = True
            break
        if len(steps) >= MAX_STEPS:
            violation = Violation(
                kind="step-limit",
                message=f"execution exceeded max_steps={MAX_STEPS}",
                dump=make_dump("step limit"),
            )
            break
        enabled = fair_enabled()
        core_choices = [c for c in enabled if c[0] == "core"]
        forced_choice = forced[index] if index < len(forced) else None

        if forced_choice is not None and forced_choice not in enabled:
            if not tolerant:
                raise ScheduleDivergence(
                    f"forced choice {forced_choice} not enabled at step "
                    f"{index} (enabled: {sorted(enabled)})"
                )
            skipped_forced += 1
            index += 1
            continue

        if forced_choice is not None:
            choice = forced_choice
        elif not core_choices:
            # No runnable core.  A one-shot probe-counter reset covers the
            # case where only deferred spinners remain but a sleeping core
            # could still be woken by a probe's registration steal.
            sleeping = any(
                not core.done and core.core_id not in controller.parked
                for core in cores
            )
            if controller.parked and sleeping and not just_reset:
                probes.clear()
                just_reset = True
                continue
            if controller.parked:
                violation = Violation(
                    kind="livelock",
                    message="only spin probes remain runnable and no write "
                    "can change their lines",
                    dump=make_dump("schedule livelock"),
                )
            else:
                violation = Violation(
                    kind="deadlock",
                    message="no core is runnable but unfinished cores remain "
                    "(lost wake-up)",
                    dump=make_dump("schedule deadlock"),
                )
            break
        else:
            pickable = [c for c in core_choices if c not in active_sleep]
            if not pickable:
                sleep_cut = True
                break
            if ("core", last_core) in pickable:
                choice = ("core", last_core)
            else:
                choice = min(pickable)

        info = enabled[choice]
        preemptive = (
            choice[0] == "core"
            and last_core is not None
            and choice[1] != last_core
            and ("core", last_core) in enabled
        )
        op = None
        records_before = len(protocol.records)
        if choice[0] == "core":
            op = controller.parked[choice[1]].op
            controller.release(choice[1])
        else:
            _, evict_core, evict_line = choice
            protocol.now = sim.now
            protocol.force_evict(evict_core, evict_line)
            evicts_used += 1
        violation = drain()
        step = Step(
            index=len(steps),
            choice=choice,
            op=op,
            info=info,
            enabled=tuple(enabled),
            enabled_info=dict(enabled),
            last_core_before=last_core,
            preemptive=preemptive,
            records=tuple(protocol.records[records_before:]),
        )
        steps.append(step)
        just_reset = False
        if preemptive:
            preemptions += 1
        if choice[0] == "core":
            last_core = choice[1]

        # Spin fairness bookkeeping: count consecutive probes per (core,
        # line); any write-kind step to a line resets its counters.
        if isinstance(op, isa.WaitLoad):
            key = (choice[1], amap.line_of(op.addr))
            probes[key] = probes.get(key, 0) + 1
        if _is_write_kind(info, op) and info.lines is not None:
            for key in [k for k in probes if k[1] in info.lines]:
                del probes[key]

        # Sleep-set inheritance from the branch node onward: executing a
        # dependent step wakes a sleeper.
        if step.index >= branch_index and active_sleep:
            active_sleep = {
                ch: sleeping_info
                for ch, sleeping_info in active_sleep.items()
                if not dependent(sleeping_info, info)
            }
        index += 1

    if violation is not None:
        violations.append(violation)

    final_memory = {addr: protocol.memory.read(addr)
                    for addr in instance.footprint}
    op_counts: dict[int, int] = {}
    for step in steps:
        if step.choice[0] == "core":
            op_counts[step.choice[1]] = op_counts.get(step.choice[1], 0) + 1

    execution = Execution(
        test_name=instance.name,
        protocol_name=protocol_name,
        steps=steps,
        violations=violations,
        completed=completed,
        sleep_cut=sleep_cut,
        preemptions=preemptions,
        op_counts=op_counts,
        final_memory=final_memory,
        trace=list(protocol.records),
        instance=instance,
        protocol=protocol,
        skipped_forced=skipped_forced,
    )
    if completed:
        from repro.mc.oracle import check_execution

        execution.violations.extend(check_execution(execution))
    return execution

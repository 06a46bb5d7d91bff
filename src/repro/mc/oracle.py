"""Safety oracles for completed controlled executions.

Three checks, all against the *serialized* step sequence the controller
produced (one visible operation per step, committed atomically):

1. **Conformance**: replay the steps through a tiny interpreter over a
   flat memory and compare every observed value.  Because the controller
   serializes visible operations, the interpreter's memory is exactly the
   sequentially consistent reference for that interleaving — a sync read
   returning anything else, a CAS/FAI whose post-value disagrees, or
   (for properly annotated litmus programs) a stale data read is a
   protocol bug in that interleaving.
2. **Final memory**: after completion, every footprint word in protocol
   memory must equal the interpreter's (catches lost writebacks).
3. **Postcondition**: the litmus test's own program-level outcome check.

Runtime coherence invariants (``invariant_level="full"``) fire *during*
execution inside :func:`repro.mc.runner.run_schedule`; this module only
covers the end-of-execution checks.
"""

from __future__ import annotations

from collections import defaultdict

from repro.cpu import isa
from repro.mc.runner import Execution, Violation


def _interpret(execution: Execution) -> tuple[dict, list[Violation]]:
    """Run the interpreter over the steps; return (memory, violations)."""
    mem: dict[int, int] = defaultdict(int)
    mem.update(execution.instance.initial_values)
    violations: list[Violation] = []

    def mismatch(step, expected: int, observed: int, what: str) -> None:
        violations.append(
            Violation(
                kind="conformance",
                message=(
                    f"step {step.index} ({step.choice}, {what} addr "
                    f"{step.op.addr}): protocol observed {observed}, "
                    f"sequentially consistent reference expects {expected}"
                ),
            )
        )

    for step in execution.steps:
        if step.choice[0] != "core":
            continue  # evictions have no memory semantics
        op = step.op
        if isinstance(op, isa.SelfInvalidate):
            continue
        if not step.records:
            violations.append(
                Violation(
                    kind="conformance",
                    message=f"step {step.index} ({step.choice}) produced no "
                    f"trace record for {op!r}",
                )
            )
            continue
        record = step.records[-1]
        if isinstance(op, (isa.WaitLoad, isa.Load)):
            expected = mem[op.addr]
            if record.value != expected:
                what = "sync read" if op.sync else "data read"
                mismatch(step, expected, record.value, what)
        elif isinstance(op, isa.Store):
            mem[op.addr] = op.value
        elif isinstance(op, isa.Cas):
            if mem[op.addr] == op.expected:
                mem[op.addr] = op.new
            if record.value != mem[op.addr]:
                mismatch(step, mem[op.addr], record.value, "CAS post-value")
        elif isinstance(op, isa.Fai):
            mem[op.addr] = mem[op.addr] + op.delta
            if record.value != mem[op.addr]:
                mismatch(step, mem[op.addr], record.value, "FAI post-value")
        elif isinstance(op, isa.Swap):
            mem[op.addr] = op.value
            if record.value != mem[op.addr]:
                mismatch(step, mem[op.addr], record.value, "swap post-value")
    return mem, violations


def check_execution(execution: Execution) -> list[Violation]:
    """All end-of-execution oracles; returns the violations found."""
    reference, violations = _interpret(execution)

    for addr in execution.instance.footprint:
        expected = reference[addr]
        observed = execution.final_memory.get(addr, 0)
        if observed != expected:
            violations.append(
                Violation(
                    kind="final-memory",
                    message=(
                        f"addr {addr}: final memory holds {observed}, "
                        f"reference expects {expected} (lost write)"
                    ),
                )
            )

    for failure in execution.instance.postcondition(dict(execution.final_memory)):
        violations.append(Violation(kind="postcondition", message=failure))

    try:
        execution.protocol.check_invariants()
    except AssertionError as exc:
        violations.append(Violation(kind="invariant", message=str(exc)))
    return violations

"""Exhaustive interleaving exploration and invariant checking.

Because the simulator applies every memory operation atomically at its
service time, an interleaving of N per-core programs is exactly a merge
of their operation sequences, and small scopes can be enumerated
completely.  For each interleaving the checker:

* applies the operations through a fresh protocol instance, spacing them
  so no two transfers overlap;
* verifies every synchronization read/RMW returns the latest committed
  value (write propagation + atomicity + serialization against a shadow
  memory — the section 4 conditions, which non-overlapped ops reduce to
  "reads see the newest write");
* verifies the coherence invariants after every operation through the
  protocol's ``invariant_violations`` (the checks defined in
  :mod:`repro.protocols.invariants`), recording the first message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from collections.abc import Iterable

from repro.config import SystemConfig, config_for_cores
from repro.protocols import make_protocol

#: Spacing between operations: beyond any transfer latency, so the
#: atomic-at-issue model has no in-flight overlap to reason about.
OP_SPACING = 2000


@dataclass(frozen=True)
class Op:
    """One operation of a verification program."""

    kind: str  # sync_load | sync_store | data_load | data_store | rmw_inc
    addr: int
    value: int = 0


def sync_load(addr: int) -> Op:
    return Op("sync_load", addr)


def sync_store(addr: int, value: int) -> Op:
    return Op("sync_store", addr, value)


def data_store(addr: int, value: int) -> Op:
    return Op("data_store", addr, value)


def rmw_inc(addr: int) -> Op:
    return Op("rmw_inc", addr)


@dataclass
class CheckFailure:
    """One violated check, with enough context to reproduce it."""

    interleaving: tuple[int, ...]
    step: int
    op: Op
    core: int
    message: str


@dataclass
class VerificationReport:
    """Outcome of one exhaustive exploration."""

    protocol: str
    interleavings: int = 0
    operations_checked: int = 0
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _interleavings(lengths: list[int]) -> Iterable[tuple[int, ...]]:
    """All merges of per-core sequences, as tuples of core indices."""
    tokens = []
    for core, length in enumerate(lengths):
        tokens.extend([core] * length)
    seen = set()
    for perm in permutations(tokens):
        if perm not in seen:
            seen.add(perm)
            yield perm


def explore_protocol(
    protocol_name: str,
    programs: list[list[Op]],
    config: SystemConfig | None = None,
    max_interleavings: int = 5000,
) -> VerificationReport:
    """Exhaustively check ``programs`` under ``protocol_name``.

    Raises ValueError if the scope exceeds ``max_interleavings`` (keep
    programs small — exhaustiveness is the point).
    """
    config = config or config_for_cores(4)
    if len(programs) > config.num_cores:
        raise ValueError("more programs than cores")
    report = VerificationReport(protocol=protocol_name)

    for interleaving in _interleavings([len(p) for p in programs]):
        report.interleavings += 1
        if report.interleavings > max_interleavings:
            raise ValueError(
                f"scope too large (> {max_interleavings} interleavings)"
            )
        protocol = make_protocol(protocol_name, config)
        shadow: dict[int, int] = {}
        positions = [0] * len(programs)
        now = 0
        for step, core in enumerate(interleaving):
            op = programs[core][positions[core]]
            positions[core] += 1
            now += OP_SPACING
            protocol.now = now
            failure = _apply_and_check(
                protocol, shadow, core, op, interleaving, step
            )
            report.operations_checked += 1
            if failure is not None:
                report.failures.append(failure)
                break
            violations = protocol.invariant_violations()
            if violations:
                report.failures.append(
                    CheckFailure(interleaving, step, op, core, violations[0])
                )
                break
    return report


def _apply_and_check(protocol, shadow, core, op, interleaving, step):
    """Apply one op; check the value it observes against the shadow."""

    def fail(message):
        return CheckFailure(interleaving, step, op, core, message)

    if op.kind == "sync_load":
        access = protocol.load(core, op.addr, sync=True, ticketed=True)
        expected = shadow.get(op.addr, 0)
        if access.value != expected:
            return fail(
                f"sync load saw {access.value}, latest committed is {expected}"
            )
    elif op.kind == "data_load":
        protocol.load(core, op.addr, ticketed=True)
        # Data loads may legally be stale (data-race-free contract).
    elif op.kind == "sync_store":
        protocol.store(core, op.addr, op.value, sync=True, ticketed=True)
        shadow[op.addr] = op.value
    elif op.kind == "data_store":
        protocol.store(core, op.addr, op.value, ticketed=True)
        shadow[op.addr] = op.value
    elif op.kind == "rmw_inc":
        access = protocol.rmw(core, op.addr, lambda old: old + 1, ticketed=True)
        expected = shadow.get(op.addr, 0)
        if access.value != expected:
            return fail(f"rmw read {access.value}, latest committed is {expected}")
        shadow[op.addr] = expected + 1
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")

    memory_value = protocol.memory.read(op.addr)
    if memory_value != shadow.get(op.addr, 0):
        return fail(
            f"backing store holds {memory_value}, shadow says "
            f"{shadow.get(op.addr, 0)}"
        )
    return None

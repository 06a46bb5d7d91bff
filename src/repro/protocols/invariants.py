"""Coherence invariant checker: the one definition of each invariant.

Every protocol's ``invariant_violations`` returns one of the lists below,
and every audit goes through it: the chaos sweep and the final-state
tests at quiescent points, and :class:`InvariantAudit`, the protocol
wrapper that :func:`~repro.protocols.make_protocol` applies when
``SystemConfig.invariant_level`` asks for runtime audits (the model
checker, :mod:`repro.mc`, runs every execution at ``full``).  It
audits just before each state-changing call (load, store, RMW,
self-invalidation, forced eviction), when all state is architecturally
settled:

* ``off``  — never: no wrapper at all (the default),
* ``full`` — before every call.

A failed check raises :class:`InvariantViolation` (an ``AssertionError``:
the simulator itself is wrong, not the workload), whose message names
every violated invariant with the line/word address and the cores
involved.

Checked invariants — MESI (line granularity):

* **single owner**: a directory entry's exclusive owner holds the line in
  E or M, and no other core caches it;
* **M excludes sharers**: an owned entry records no sharers besides the
  owner;
* **directory completeness**: every cached copy is known to the directory
  (sharer list ⊇ actual caching cores), and every E/M copy in an L1 is
  the directory's recorded owner.

DeNovo (word granularity):

* **registry accuracy**: the registry owner of a word holds it Registered
  with the up-to-date (backing-store) value — the registry points at the
  unique up-to-date copy;
* **single registered copy**: no core other than the registry owner holds
  the word Registered (and no Registered word is unknown to the
  registry);
* **touched-set consistency**: every Valid word is present in its L1's
  region-indexed valid-word tracking, so a self-invalidation of the
  word's region cannot miss it.

Neat (word granularity, no global tracking):

* **dirty-set accuracy**: a core's dirty set and the Registered ("dirty")
  words in its L1 are the same set — the release flush walks the dirty
  set, so a dirty word missing from it would never self-downgrade;
* **dirty freshness**: a dirty copy's value matches the backing store
  (the simulator commits writes architecturally at issue; a divergence
  means the protocol lost a write);
* **touched-set consistency**: as for DeNovo.
"""

from __future__ import annotations

from repro.mem.l1 import EXCLUSIVE, MODIFIED, REGISTERED, VALID
from repro.protocols.base import ProtocolWrapper


class InvariantViolation(AssertionError):
    """Protocol state violates a coherence invariant (a simulator bug).

    ``violations`` is the full list of messages; the exception text
    carries all of them so a single failure reports every broken
    invariant at once.
    """

    def __init__(self, protocol_name: str, now: int, violations: list[str]):
        self.protocol_name = protocol_name
        self.now = now
        self.violations = list(violations)
        detail = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"[{protocol_name}] {len(self.violations)} coherence invariant "
            f"violation(s) at cycle {now}:\n{detail}"
        )


class InvariantAudit(ProtocolWrapper):
    """Audit ``inner``'s invariants before every state-changing call; a
    violation raises :class:`InvariantViolation` before the call runs."""

    def load(self, *args, **kwargs):
        self.inner.check_invariants()
        return self.inner.load(*args, **kwargs)

    def store(self, *args, **kwargs):
        self.inner.check_invariants()
        return self.inner.store(*args, **kwargs)

    def rmw(self, *args, **kwargs):
        self.inner.check_invariants()
        return self.inner.rmw(*args, **kwargs)

    def self_invalidate(self, *args, **kwargs):
        self.inner.check_invariants()
        return self.inner.self_invalidate(*args, **kwargs)

    def force_evict(self, *args, **kwargs):
        self.inner.check_invariants()
        return self.inner.force_evict(*args, **kwargs)


# -- MESI ---------------------------------------------------------------------


def mesi_violations(protocol) -> list[str]:
    """All violated MESI invariants of ``protocol`` (a MesiProtocol)."""
    failures: list[str] = []
    for line, entry in protocol._directory.items():
        holders = {
            core_id
            for core_id, l1 in enumerate(protocol.l1s)
            if l1.state_of(line, touch=False) is not None
        }
        owner = entry.exclusive_owner
        if owner is not None:
            owner_state = protocol.l1s[owner].state_of(line, touch=False)
            if owner_state not in (EXCLUSIVE, MODIFIED):
                failures.append(
                    f"line {line}: directory owner core {owner} holds "
                    f"{owner_state} (expected E or M)"
                )
            extra = holders - {owner}
            if extra:
                failures.append(
                    f"line {line}: exclusive owner core {owner} coexists "
                    f"with copies at cores {sorted(extra)}"
                )
            if entry.sharers - {owner}:
                failures.append(
                    f"line {line}: owner core {owner} recorded alongside "
                    f"sharers {sorted(entry.sharers)}"
                )
        else:
            unknown = holders - entry.sharers
            if unknown:
                failures.append(
                    f"line {line}: cores {sorted(unknown)} cache copies the "
                    f"directory does not know about (sharers "
                    f"{sorted(entry.sharers)})"
                )
    # The cache-side view of single-owner: an E/M copy anywhere must be
    # the directory's recorded owner for that line.
    for core_id, l1 in enumerate(protocol.l1s):
        for line, state in l1.lines_and_states():
            if state in (EXCLUSIVE, MODIFIED):
                entry = protocol._directory.get(line)
                owner = entry.exclusive_owner if entry is not None else None
                if owner != core_id:
                    failures.append(
                        f"line {line}: core {core_id} holds {state} but the "
                        f"directory records owner {owner}"
                    )
    return failures


# -- DeNovo -------------------------------------------------------------------


def denovo_violations(protocol) -> list[str]:
    """All violated DeNovo invariants of ``protocol`` (a DeNovoBaseProtocol)."""
    failures: list[str] = []
    memory = protocol.memory
    for addr, owner in protocol.registry.items():
        l1 = protocol.l1s[owner]
        state = l1.state_of(addr, touch=False)
        if state is not REGISTERED:
            failures.append(
                f"word {addr}: registry points at core {owner} but its L1 "
                f"holds {state}"
            )
        else:
            cached = l1.value_of(addr)
            latest = memory.read(addr)
            if cached != latest:
                failures.append(
                    f"word {addr}: registered copy at core {owner} is stale "
                    f"({cached} vs backing store {latest})"
                )
    for core_id, l1 in enumerate(protocol.l1s):
        tracked = l1.tracked_valid_words()
        for addr, state in l1.words_and_states():
            if state is REGISTERED:
                recorded = protocol.registry.get(addr)
                if recorded != core_id:
                    failures.append(
                        f"word {addr}: core {core_id} holds a Registered "
                        f"copy but the registry points at {recorded}"
                    )
            elif state is VALID and addr not in tracked:
                failures.append(
                    f"word {addr}: Valid at core {core_id} but missing from "
                    f"its self-invalidation region tracking"
                )
    return failures


# -- Neat ---------------------------------------------------------------------


def neat_violations(protocol) -> list[str]:
    """All violated Neat invariants of ``protocol`` (a NeatProtocol)."""
    failures: list[str] = []
    memory = protocol.memory
    for core_id, l1 in enumerate(protocol.l1s):
        dirty = protocol._dirty[core_id]
        tracked = l1.tracked_valid_words()
        for addr, state in l1.words_and_states():
            if state is REGISTERED:
                if addr not in dirty:
                    failures.append(
                        f"word {addr}: dirty at core {core_id} but missing "
                        f"from its dirty set (would never self-downgrade)"
                    )
                elif l1.value_of(addr) != memory.read(addr):
                    failures.append(
                        f"word {addr}: dirty copy at core {core_id} is stale "
                        f"({l1.value_of(addr)} vs backing store "
                        f"{memory.read(addr)})"
                    )
            elif state is VALID and addr not in tracked:
                failures.append(
                    f"word {addr}: Valid at core {core_id} but missing from "
                    f"its self-invalidation region tracking"
                )
        for addr in sorted(dirty):
            if l1.state_of(addr, touch=False) is not REGISTERED:
                failures.append(
                    f"word {addr}: in core {core_id}'s dirty set but not "
                    f"held dirty in its L1"
                )
    return failures

"""Render watchdog hang dumps: everything needed to diagnose a stuck run.

:func:`build_dump` snapshots the simulation the moment the watchdog
trips; :meth:`DiagnosticDump.render` formats it for humans.  A dump
answers the questions a hang investigation always starts with:

* which cores are blocked, on what operation, for how long, and in what
  wait state (``spin-sleep (subscribed)`` is the tell-tale of a lost
  wake-up — the PR-1 bug class);
* what the protocol thinks about each contested address: the
  directory/registry entry, every core's cached state, and who is
  subscribed to a change;
* what transient state is still in flight: busy directory windows,
  registration chains, sleeping subscriptions, fault-injector activity;
* how deep the event queue is (zero = quiescence deadlock, nonzero =
  livelock).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BlockedCoreInfo:
    """One unfinished core's wait state at dump time."""

    core_id: int
    pending_op: str
    wait_reason: str
    blocked_since: int
    blocked_for: int


@dataclass
class DiagnosticDump:
    """Structured snapshot of a hung simulation."""

    reason: str
    protocol: str
    cycle: int
    progress_cycle: int
    pending_events: int
    blocked: list[BlockedCoreInfo] = field(default_factory=list)
    contested: list[str] = field(default_factory=list)
    transients: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            "=== watchdog diagnostic dump ===",
            f"reason: {self.reason}",
            f"protocol: {self.protocol}  cycle: {self.cycle}  "
            f"last progress: cycle {self.progress_cycle}  "
            f"pending events: {self.pending_events}",
            f"blocked cores ({len(self.blocked)}):",
        ]
        if not self.blocked:
            lines.append("  (none)")
        for info in self.blocked:
            lines.append(
                f"  core {info.core_id}: {info.pending_op} — "
                f"{info.wait_reason}, blocked since cycle "
                f"{info.blocked_since} ({info.blocked_for} cycles)"
            )
        lines.append("contested addresses:")
        if not self.contested:
            lines.append("  (none)")
        for entry in self.contested:
            lines.append(f"  {entry}")
        lines.append("in-flight transient state:")
        if not self.transients:
            lines.append("  (none)")
        for entry in self.transients:
            lines.append(f"  {entry}")
        lines.append("=== end of dump ===")
        return "\n".join(lines)


def _op_addrs(op) -> list[int]:
    """Addresses referenced by an ISA op (most have one; Compute has none)."""
    addr = getattr(op, "addr", None)
    return [addr] if addr is not None else []


def build_dump(sim, cores, protocol, reason: str) -> DiagnosticDump:
    """Snapshot ``sim``/``cores``/``protocol`` into a :class:`DiagnosticDump`.

    ``protocol`` is the outermost layer the cores talk to: wrappers read
    through to the bare protocol, and the fault injector puts its own
    activity line ahead of the protocol's transients.
    """
    dump = DiagnosticDump(
        reason=reason,
        protocol=protocol.name,
        cycle=sim.now,
        progress_cycle=sim.progress_cycle,
        pending_events=sim.pending_events,
    )
    contested_addrs: list[int] = []
    for core in cores:
        if core.done:
            continue
        dump.blocked.append(
            BlockedCoreInfo(
                core_id=core.core_id,
                pending_op=repr(core.pending_op),
                wait_reason=core.wait_reason or "(unknown)",
                blocked_since=core.blocked_since,
                blocked_for=sim.now - core.blocked_since,
            )
        )
        for addr in _op_addrs(core.pending_op):
            if addr not in contested_addrs:
                contested_addrs.append(addr)
    dump.contested = [protocol.debug_addr_state(addr) for addr in contested_addrs]
    dump.transients = protocol.debug_transients()
    return dump

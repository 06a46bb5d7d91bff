"""Picklable per-protocol cells for the parallel ``formal`` sweep.

Mirrors :mod:`repro.mc.cells` / :mod:`repro.sanitize.cells`: the
``formal`` CLI target builds one :class:`FormalCell` per protocol that
declares a ``formal_model`` capability and fans them out through
:func:`repro.harness.parallel.run_tasks`.  Each cell runs all four
formal layers for its protocol — static conformance, small-scope
exhaustive exploration, the litmus divergence oracle, and TLA+ export —
and sends back a plain-data outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sanitize.findings import Finding


@dataclass(frozen=True)
class FormalCell:
    """One protocol's formal-verification work item."""

    protocol: str
    divergence_bound: int = 1
    divergence_schedules: int = 300
    litmus: tuple = ()  # () = the whole corpus


@dataclass
class FormalOutcome:
    """Picklable summary of one verified protocol."""

    protocol: str
    model: str
    findings: list[Finding] = field(default_factory=list)
    coverage: dict = field(default_factory=dict)
    explore_stats: dict = field(default_factory=dict)
    oracle_stats: dict = field(default_factory=dict)
    tla_module: str = ""
    tla_text: str = ""

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def describe(self) -> str:
        line = (
            f"{self.protocol:12s} model={self.model:12s} "
            f"states={self.explore_stats.get('states', 0):5d} "
            f"transitions={self.explore_stats.get('transitions', 0):6d} "
            f"replayed={self.oracle_stats.get('executions', 0):4d} "
            f"execution(s)"
        )
        if self.ok:
            return line + " — ok"
        errors = sum(1 for f in self.findings if f.severity == "error")
        return line + f" — {errors} error finding(s)"


def run_cell(cell: FormalCell) -> FormalOutcome:
    """Run every formal layer for one protocol (worker entry point)."""
    from repro.formal.conformance import check_protocol
    from repro.formal.explore import explore_model
    from repro.formal.model import get_model
    from repro.formal.oracle import replay_corpus
    from repro.formal.tla import export_tla, module_name
    from repro.mc.litmus import CORPUS
    from repro.protocols.registry import get_info

    info = get_info(cell.protocol)
    if info.formal_model is None:
        raise ValueError(f"{cell.protocol} declares no formal model")
    model = get_model(info.formal_model)

    conformance = check_protocol(info, model)
    outcome = FormalOutcome(
        protocol=cell.protocol,
        model=model.name,
        coverage=conformance.coverage,
        tla_module=module_name(model),
        tla_text=export_tla(model),
    )
    outcome.findings.extend(conformance.findings)

    exploration = explore_model(model)
    outcome.explore_stats = exploration.stats()
    outcome.findings.extend(exploration.findings)

    tests = (
        {name: CORPUS[name] for name in cell.litmus}
        if cell.litmus
        else None
    )
    oracle_findings, oracle_stats = replay_corpus(
        cell.protocol,
        model,
        tests,
        bound=cell.divergence_bound,
        max_schedules=cell.divergence_schedules,
    )
    outcome.oracle_stats = oracle_stats.to_dict()
    outcome.findings.extend(oracle_findings)
    return outcome

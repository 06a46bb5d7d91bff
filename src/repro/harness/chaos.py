"""Chaos differential sweep: perturbed runs must converge to the same state.

For workloads whose final memory state is interleaving-independent
(lock-protected commutative updates, per-core disjoint words), *any*
legal perturbation of the schedule — delay jitter, bounded reordering,
eviction storms — must leave the final backing store byte-identical to
the unperturbed run, terminate, and keep every coherence invariant.  A
divergence is a protocol bug by construction, with a seed that
reproduces it.

:func:`run_chaos_sweep` runs the cross product of chaos-safe workloads ×
protocols × fault seeds (one unperturbed baseline per workload/protocol
pair, reused across seeds) with full runtime invariant checking armed,
and reports per-cell verdicts.  The CLI's ``chaos`` target and the CI
chaos-smoke job drive it; ``tests/test_faults.py`` asserts on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.config import SystemConfig, config_for_cores
from repro.harness.runner import run_workload
from repro.noc.faults import FaultPlan
from repro.protocols.registry import default_comparison_set

#: The chaos acceptance set: the default comparison set (every backend
#: supports fault injection and runtime invariant checking).
CHAOS_PROTOCOLS = default_comparison_set()

#: How many differing words to name before truncating a mismatch report.
MAX_REPORTED_DIFFS = 8


def chaos_workloads(scale: float = 0.05) -> list[tuple[str, Callable]]:
    """(label, workload factory) pairs with interleaving-independent final
    memory: lock-protected commutative increments (counter, large CS) and
    per-core disjoint words (false sharing).  Structure kernels (queues,
    heap) are excluded — their final layout legitimately depends on the
    schedule."""
    from repro.workloads.base import KernelSpec
    from repro.workloads.micro import FalseSharingMicro
    from repro.workloads.registry import make_kernel

    return [
        (
            "tatas/counter",
            lambda: make_kernel("tatas", "counter", spec=KernelSpec(scale=scale)),
        ),
        (
            "tatas/large CS",
            lambda: make_kernel("tatas", "large CS", spec=KernelSpec(scale=scale)),
        ),
        ("micro.falsesharing", lambda: FalseSharingMicro(rounds=8)),
    ]


def default_fault_plan(seed: int) -> FaultPlan:
    """The standard chaos perturbation: a bit of everything."""
    return FaultPlan(
        seed=seed,
        delay_jitter=7,
        reorder_prob=0.05,
        reorder_delay=24,
        evict_period=300,
        evict_lines=2,
    )


@dataclass
class ChaosCell:
    """Verdict of one (workload, protocol, fault seed) differential."""

    workload: str
    protocol: str
    seed: int
    baseline_cycles: int
    perturbed_cycles: int
    injected: str
    mismatches: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        line = (
            f"[{verdict}] {self.workload} / {self.protocol} / fault seed "
            f"{self.seed}: {self.baseline_cycles} -> "
            f"{self.perturbed_cycles} cycles ({self.injected})"
        )
        for msg in self.mismatches + self.violations:
            line += f"\n    {msg}"
        return line


def diff_memory(baseline: dict[int, int], perturbed: dict[int, int]) -> list[str]:
    """Word-level differences between two backing-store snapshots."""
    diffs = []
    for addr in sorted(baseline.keys() | perturbed.keys()):
        base, pert = baseline.get(addr), perturbed.get(addr)
        if base != pert:
            diffs.append(
                f"word {addr}: baseline {base} != perturbed {pert}"
            )
            if len(diffs) > MAX_REPORTED_DIFFS:
                diffs.append("... (further differences truncated)")
                break
    return diffs


def run_chaos_cell(
    factory: Callable,
    protocol_name: str,
    config: SystemConfig,
    plan: FaultPlan,
    label: str,
    baseline_snapshot: dict[int, int] | None = None,
    baseline_cycles: int = 0,
) -> ChaosCell:
    """One differential: perturbed run vs (possibly precomputed) baseline."""
    if baseline_snapshot is None:
        baseline = run_workload(factory(), protocol_name, config, keep_protocol=True)
        baseline_snapshot = baseline.meta["protocol"].memory.snapshot()
        baseline_cycles = baseline.cycles
    perturbed = run_workload(
        factory(), protocol_name, config, keep_protocol=True, fault_plan=plan
    )
    injector = perturbed.meta["fault_injector"]
    protocol = perturbed.meta["protocol"]
    return ChaosCell(
        workload=label,
        protocol=protocol_name,
        seed=plan.seed,
        baseline_cycles=baseline_cycles,
        perturbed_cycles=perturbed.cycles,
        injected=(
            f"{injector.injected_delay} delay cycles, "
            f"{injector.deferrals} deferrals, "
            f"{injector.forced_evictions} forced evictions"
        ),
        mismatches=diff_memory(
            baseline_snapshot, protocol.memory.snapshot()
        ),
        violations=protocol.invariant_violations(),
    )


def run_chaos_sweep(
    protocols: Sequence[str] = CHAOS_PROTOCOLS,
    seeds: Sequence[int] = (1, 2, 3),
    num_cores: int = 16,
    scale: float = 0.05,
    invariant_level: str = "full",
) -> list[ChaosCell]:
    """The full differential matrix, with runtime invariants armed."""
    config = config_for_cores(num_cores, invariant_level=invariant_level)
    cells = []
    for label, factory in chaos_workloads(scale):
        for protocol_name in protocols:
            baseline = run_workload(
                factory(), protocol_name, config, keep_protocol=True
            )
            snapshot = baseline.meta["protocol"].memory.snapshot()
            for seed in seeds:
                cells.append(
                    run_chaos_cell(
                        factory,
                        protocol_name,
                        config,
                        default_fault_plan(seed),
                        label,
                        baseline_snapshot=snapshot,
                        baseline_cycles=baseline.cycles,
                    )
                )
    return cells

"""Experiment definitions: one entry per table/figure in the paper.

Each experiment regenerates the rows/series of one figure:

* Figures 3-6: the four kernel families, each at 16 and 64 cores, under
  the registry's default comparison set (the paper's MESI / DeNovoSync0 /
  DeNovoSync plus Neat and SynCron), reporting execution time and network
  traffic normalized to MESI with the same component decomposition as the
  paper's stacked bars.
* Figure 7: the 13 applications under the app comparison set (ferret and
  x264 at 16 cores, the rest at 64).
* The section 7.1 ablations (lock padding, software backoff on TATAS
  kernels, the Herlihy equality-check modification) and the section 3
  self-invalidation fallback.  Each ablation's baseline variant is its
  figure's own cells.

``scale`` shrinks the paper's iteration counts/inputs so a full figure
sweep stays tractable in pure Python; the shapes are stable across scales
(see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import config_for_cores
from repro.harness.parallel import (
    RunSpec,
    ResultCache,
    app_cell,
    app_selfinv_cell,
    kernel_cell,
    run_specs,
)
from repro.protocols.registry import app_comparison_set, default_comparison_set
from repro.stats.collector import RunResult
from repro.workloads.apps import APP_NAMES, app_core_count
from repro.workloads.base import KernelSpec
from repro.workloads.registry import kernel_names

# Registry-derived comparison sets (MESI registers first, so the
# figures' rel_time/rel_traffic baseline column stays in front).
KERNEL_PROTOCOLS = default_comparison_set()
APP_PROTOCOLS = app_comparison_set()

FIGURE_FOR_FAMILY = {
    "tatas": "Figure 3 (TATAS locks)",
    "array": "Figure 4 (array locks)",
    "nonblocking": "Figure 5 (non-blocking algorithms)",
    "barrier": "Figure 6 (barriers)",
    "mcs": "Extension (MCS queue locks)",
}


@dataclass
class FigureRow:
    """One (workload, cores) row of a figure: results per protocol."""

    workload: str
    num_cores: int
    results: dict[str, RunResult] = field(default_factory=dict)

    def rel_time(self, protocol: str, baseline: str = "MESI") -> float:
        return self.results[protocol].cycles / max(1, self.results[baseline].cycles)

    def rel_traffic(self, protocol: str, baseline: str = "MESI") -> float:
        return self.results[protocol].total_traffic / max(
            1, self.results[baseline].total_traffic
        )


@dataclass
class FigureResult:
    """All rows of one figure reproduction."""

    figure: str
    rows: list[FigureRow]
    scale: float


def run_kernel_figure(
    family: str,
    core_counts: tuple[int, ...] = (16, 64),
    scale: float = 0.1,
    seed: int = 1,
    protocols: tuple[str, ...] = KERNEL_PROTOCOLS,
    names: list[str] | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    **kernel_kwargs,
) -> FigureResult:
    """Reproduce one kernel figure (3, 4, 5 or 6).

    ``jobs`` fans independent (workload, protocol, cores) cells out to
    worker processes; the row/result ordering is identical for any value
    (see :mod:`repro.harness.parallel`).  ``cache`` skips cells already
    simulated with identical inputs and code.
    """
    rows: list[FigureRow] = []
    specs: list[RunSpec] = []
    slots: list[tuple[FigureRow, str]] = []
    for cores in core_counts:
        config = config_for_cores(cores)
        for name in names or kernel_names(family):
            row = FigureRow(workload=name, num_cores=cores)
            rows.append(row)
            for protocol in protocols:
                specs.append(
                    RunSpec(
                        kernel_cell(
                            family, name, spec=KernelSpec(scale=scale), **kernel_kwargs
                        ),
                        protocol,
                        config,
                        seed=seed,
                    )
                )
                slots.append((row, protocol))
    for (row, protocol), result in zip(slots, run_specs(specs, jobs=jobs, cache=cache)):
        row.results[protocol] = result
    return FigureResult(FIGURE_FOR_FAMILY[family], rows, scale)


def run_apps_figure(
    scale: float = 0.5,
    seed: int = 1,
    protocols: tuple[str, ...] = APP_PROTOCOLS,
    names: list[str] | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> FigureResult:
    """Reproduce Figure 7 (applications)."""
    rows: list[FigureRow] = []
    specs: list[RunSpec] = []
    slots: list[tuple[FigureRow, str]] = []
    for name in names or APP_NAMES:
        cores = app_core_count(name)
        config = config_for_cores(cores)
        row = FigureRow(workload=name, num_cores=cores)
        rows.append(row)
        for protocol in protocols:
            specs.append(RunSpec(app_cell(name, scale=scale), protocol, config, seed=seed))
            slots.append((row, protocol))
    for (row, protocol), result in zip(slots, run_specs(specs, jobs=jobs, cache=cache)):
        row.results[protocol] = result
    return FigureResult("Figure 7 (applications)", rows, scale)


# -- ablations (sections 7.1 and 3) -------------------------------------------


def _kernel_ablation(
    family: str,
    subject: str,
    variants: dict[str, dict],
    cores: int,
    scale: float,
    names: list[str] | None = None,
    **sweep,
) -> dict[str, FigureResult]:
    """One kernel figure per ``{label: kernel arguments}`` variant.

    The baseline variant passes no kernel argument, so its cells are the
    figure's own (and hit the figure's cache entries).
    """
    results = {}
    for label, kernel_kwargs in variants.items():
        fig = run_kernel_figure(
            family,
            core_counts=(cores,),
            scale=scale,
            names=names,
            **sweep,
            **kernel_kwargs,
        )
        results[label] = FigureResult(f"{subject} ({label})", fig.rows, scale)
    return results


def run_padding_ablation(
    cores: int = 16,
    scale: float = 0.1,
    seed: int = 1,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, FigureResult]:
    """Section 7.1.1: TATAS kernels with and without lock padding.

    Without padding, lock words share cache lines with each other, so
    MESI suffers false sharing; DeNovo's word-granularity state is immune
    but loses the one-transfer-per-line benefit.
    """
    return _kernel_ablation(
        "tatas", "TATAS locks", {"padded": {}, "unpadded": {"padded": False}},
        cores, scale, seed=seed, jobs=jobs, cache=cache,
    )


def run_sw_backoff_ablation(
    cores: int = 64,
    scale: float = 0.1,
    seed: int = 1,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, FigureResult]:
    """Section 7.1.1: TATAS kernels with software exponential backoff.

    The paper found software backoff widens DeNovo's gap over MESI: it
    spaces failed synchronization reads (reducing DeNovo's false-race
    misses) but does nothing about MESI's invalidation latency.
    """
    return _kernel_ablation(
        "tatas", "TATAS locks",
        {"no backoff": {}, "sw backoff": {"software_backoff": True}},
        cores, scale, seed=seed, jobs=jobs, cache=cache,
    )


def run_selfinv_ablation(
    app: str = "water",
    scale: float = 0.3,
    seed: int = 1,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, FigureResult]:
    """Section 3's data-consistency spectrum on one application.

    Compares DeNovoSync with compiler-provided selective region
    self-invalidation (the paper's assumption, so Figure 7's own cells)
    against the always-correct no-information fallback that flushes every
    Valid word at each acquire and phase boundary.  MESI is the common
    baseline.
    """
    cores = app_core_count(app)
    config = config_for_cores(cores)
    variants = {
        "selective regions": app_cell(app, scale=scale),
        "flush-all": app_selfinv_cell(app, scale, flush_all=True),
    }
    specs = [
        RunSpec(cell, protocol, config, seed=seed)
        for cell in variants.values()
        for protocol in APP_PROTOCOLS
    ]
    results = iter(run_specs(specs, jobs=jobs, cache=cache))
    figures = {}
    for label in variants:
        row = FigureRow(workload=app, num_cores=cores)
        for protocol in APP_PROTOCOLS:
            row.results[protocol] = next(results)
        figures[label] = FigureResult(f"{app} self-invalidation ({label})", [row], scale)
    return figures


def run_eqcheck_ablation(
    cores: int = 64,
    scale: float = 0.1,
    seed: int = 1,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, FigureResult]:
    """Section 7.1.3: Herlihy kernels, original vs reduced equality checks.

    The original versions re-read the shared pointer to filter doomed
    attempts early — free under MESI's cached spinning, a registration
    miss under DeNovo.  The paper's modified (reduced-check) versions help
    DeNovo far more than MESI.
    """
    return _kernel_ablation(
        "nonblocking", "Herlihy kernels",
        {"original checks": {"reduced_checks": False}, "reduced checks": {}},
        cores, scale, names=["Herlihy stack", "Herlihy heap"],
        seed=seed, jobs=jobs, cache=cache,
    )

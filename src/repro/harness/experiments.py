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
* Extension studies: lock design (section 6), read-for-ownership
  (section 8), write signatures (section 7), scaling from 4 to 64 cores,
  and sensitivity to the calibration constants.

Each table is a *cell builder*: it appends one ``(FigureRow, RunSpec)``
pair per simulation to ``cells`` and returns its figures with empty rows.
:func:`fill_rows` then simulates each distinct spec once, in one sweep,
and files every result under each row that asked for it, so a command
that builds several tables (the CLI's ``all``) makes one sweep.
``run_<builder>`` is one builder plus that sweep.

``scale`` shrinks the paper's iteration counts/inputs so a full figure
sweep stays tractable in pure Python; the shapes are stable across scales
(see EXPERIMENTS.md).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import wraps

from repro.config import BackoffConfig, ProtocolTuning, config_16, config_64, config_for_cores
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


#: ``(row, spec)`` pairs: the simulations a builder's rows wait for.
Cells = list[tuple[FigureRow, RunSpec]]


def fill_rows(cells: Cells, jobs: int, cache: ResultCache | None) -> None:
    """Simulate each distinct spec of ``cells`` once, in one sweep, and
    file its result under every row that asked for it, by protocol.

    ``jobs`` fans the specs out to worker processes and ``cache`` skips
    the ones already simulated with identical inputs and code; the
    results are identical for any ``jobs`` (see
    :mod:`repro.harness.parallel`).  Rows may share a result object, so
    readers must not mutate it.
    """
    specs = list(dict.fromkeys(spec for _, spec in cells))
    results = dict(zip(specs, run_specs(specs, jobs=jobs, cache=cache)))
    for row, spec in cells:
        row.results[spec.protocol] = results[spec]


def _runner(build: Callable) -> Callable:
    """``run_<build>``: cell builder ``build`` plus one :func:`fill_rows`
    sweep.  It takes the builder's arguments without ``cells``, and
    ``jobs`` and ``cache`` for the sweep."""

    @wraps(build)
    def run(*args, jobs: int = 1, cache: ResultCache | None = None, **kwargs):
        cells: Cells = []
        figures = build(cells, *args, **kwargs)
        fill_rows(cells, jobs, cache)
        return figures

    run.__name__ = run.__qualname__ = f"run_{build.__name__}"
    return run


def kernel_figure(
    cells: Cells,
    family: str,
    core_counts: tuple[int, ...] = (16, 64),
    scale: float = 0.1,
    seed: int = 1,
    protocols: tuple[str, ...] = KERNEL_PROTOCOLS,
    names: list[str] | None = None,
    **kernel_kwargs,
) -> FigureResult:
    """One kernel figure (3, 4, 5 or 6) with empty rows; its cells are
    appended to ``cells``.  Each (workload, cores) row gets one cell per
    protocol; ``kernel_kwargs`` go to every kernel."""
    rows: list[FigureRow] = []
    for cores in core_counts:
        config = config_for_cores(cores)
        for name in names or kernel_names(family):
            row = FigureRow(workload=name, num_cores=cores)
            rows.append(row)
            cell = kernel_cell(family, name, spec=KernelSpec(scale=scale), **kernel_kwargs)
            cells += [(row, RunSpec(cell, protocol, config, seed=seed)) for protocol in protocols]
    return FigureResult(FIGURE_FOR_FAMILY[family], rows, scale)


def apps_figure(
    cells: Cells,
    scale: float = 0.5,
    seed: int = 1,
    protocols: tuple[str, ...] = APP_PROTOCOLS,
    names: list[str] | None = None,
) -> FigureResult:
    """Figure 7 with empty rows; its cells are appended to ``cells``."""
    rows: list[FigureRow] = []
    for name in names or APP_NAMES:
        cores = app_core_count(name)
        config = config_for_cores(cores)
        row = FigureRow(workload=name, num_cores=cores)
        rows.append(row)
        cell = app_cell(name, scale=scale)
        cells += [(row, RunSpec(cell, protocol, config, seed=seed)) for protocol in protocols]
    return FigureResult("Figure 7 (applications)", rows, scale)


# -- ablations (sections 7.1 and 3) -------------------------------------------


def _kernel_variants(
    cells: Cells, subject: str, variants: dict[str, dict], **common
) -> dict[str, FigureResult]:
    """One kernel figure per ``{label: kernel_figure arguments}`` variant,
    titled ``<subject> (<label>)``; ``common`` goes to all.

    A variant that passes no kernel argument at a figure's core counts
    and protocols is that figure's own cells (the same specs).
    """
    return {
        label: replace(
            kernel_figure(cells, **common, **arguments), figure=f"{subject} ({label})"
        )
        for label, arguments in variants.items()
    }


def padding_ablation(
    cells: Cells, cores: int = 16, scale: float = 0.1, seed: int = 1
) -> dict[str, FigureResult]:
    """Section 7.1.1: TATAS kernels with and without lock padding.

    Without padding, lock words share cache lines with each other, so
    MESI suffers false sharing; DeNovo's word-granularity state is immune
    but loses the one-transfer-per-line benefit.
    """
    return _kernel_variants(
        cells, "TATAS locks", {"padded": {}, "unpadded": {"padded": False}},
        family="tatas", core_counts=(cores,), scale=scale, seed=seed,
    )


def sw_backoff_ablation(
    cells: Cells, cores: int = 64, scale: float = 0.1, seed: int = 1
) -> dict[str, FigureResult]:
    """Section 7.1.1: TATAS kernels with software exponential backoff.

    The paper found software backoff widens DeNovo's gap over MESI: it
    spaces failed synchronization reads (reducing DeNovo's false-race
    misses) but does nothing about MESI's invalidation latency.
    """
    return _kernel_variants(
        cells, "TATAS locks", {"no backoff": {}, "sw backoff": {"software_backoff": True}},
        family="tatas", core_counts=(cores,), scale=scale, seed=seed,
    )


def selfinv_ablation(
    cells: Cells, app: str = "water", scale: float = 0.3, seed: int = 1
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
    figures = {}
    for label, cell in variants.items():
        row = FigureRow(workload=app, num_cores=cores)
        cells += [(row, RunSpec(cell, protocol, config, seed=seed)) for protocol in APP_PROTOCOLS]
        figures[label] = FigureResult(f"{app} self-invalidation ({label})", [row], scale)
    return figures


def eqcheck_ablation(
    cells: Cells, cores: int = 64, scale: float = 0.1, seed: int = 1
) -> dict[str, FigureResult]:
    """Section 7.1.3: Herlihy kernels, original vs reduced equality checks.

    The original versions re-read the shared pointer to filter doomed
    attempts early — free under MESI's cached spinning, a registration
    miss under DeNovo.  The paper's modified (reduced-check) versions help
    DeNovo far more than MESI.
    """
    return _kernel_variants(
        cells, "Herlihy kernels",
        {"original checks": {"reduced_checks": False}, "reduced checks": {}},
        family="nonblocking", core_counts=(cores,), scale=scale,
        names=["Herlihy stack", "Herlihy heap"], seed=seed,
    )


# -- extension studies --------------------------------------------------------
#
# Claims beyond the figures, at fixed core counts and protocols.  Wherever
# a study's cell is a figure's (same inputs), it is that figure's spec, so
# ``all`` simulates it once.


def lock_design_study(cells: Cells, scale: float = 0.1, seed: int = 1) -> dict[str, FigureResult]:
    """Section 6: TATAS (one hot word), Anderson array and MCS locks (one
    spinner per word) on the counter and stack kernels.  The analysis
    predicts the queuing locks separate the protocols less than TATAS."""
    return _kernel_variants(
        cells, "Lock design", {lock: {"family": lock} for lock in ("tatas", "array", "mcs")},
        core_counts=(16, 64), scale=scale, names=["counter", "stack"], seed=seed,
    )


def rfo_study(cells: Cells, scale: float = 0.1, seed: int = 1) -> dict[str, FigureResult]:
    """Section 8: is read registration "just" read-for-ownership?  MESI,
    MESI-RFO and DeNovoSync on the array lock's single waiter (the write
    miss RFO saves) and on the TATAS counter and CAS loops (where RFO adds
    read-read ping-pong to MESI's invalidations)."""
    return _kernel_variants(
        cells, "Read-for-ownership",
        {
            "array": {"family": "array", "names": ["counter", "stack"]},
            "tatas": {"family": "tatas", "names": ["counter"]},
            "nonblocking": {"family": "nonblocking", "names": ["M-S queue", "Treiber stack"]},
        },
        core_counts=(16, 64), scale=scale, protocols=("MESI", "MESI-RFO", "DeNovoSync"),
        seed=seed,
    )


def signatures_study(
    cells: Cells, scale: float = 0.1, app_scale: float = 0.5, seed: int = 1
) -> dict[str, FigureResult]:
    """Section 7's future work: write signatures (``DeNovoSyncSig``)
    against static regions on the two workloads the paper names as
    victims of conservative regions, the 64-core array-lock heap (with
    the counter) and fluidanimate at ``app_scale``."""
    protocols = ("MESI", "DeNovoSync", "DeNovoSyncSig")
    array = kernel_figure(
        cells, "array", core_counts=(64,), scale=scale, names=["heap", "counter"],
        protocols=protocols, seed=seed,
    )
    apps = apps_figure(
        cells, scale=app_scale, seed=seed, protocols=protocols, names=["fluidanimate"]
    )
    return {
        "array": replace(array, figure="Write signatures (array)"),
        "fluidanimate": replace(apps, figure="Write signatures (fluidanimate)"),
    }


def scaling_study(cells: Cells, scale: float = 0.1, seed: int = 1) -> dict[str, FigureResult]:
    """4, 16 and 64 cores: the TATAS counter (MESI's invalidation cost
    grows with every spinner) and the tree barrier (the protocols tie)."""
    return _kernel_variants(
        cells, "Scaling",
        {
            "tatas": {"family": "tatas", "names": ["counter"]},
            "barrier": {"family": "barrier", "names": ["tree"]},
        },
        core_counts=(4, 16, 64), scale=scale,
        protocols=("MESI", "DeNovoSync0", "DeNovoSync"), seed=seed,
    )


def sensitivity_study(cells: Cells, scale: float = 0.1, seed: int = 1) -> dict[str, FigureResult]:
    """The orderings across unpublished calibration constants, one row
    per setting: MESI's directory occupancy times DeNovo's chain link
    cost at 16 cores, on the TATAS counter (DeNovoSync wins) and the M-S
    queue (DeNovoSync0 loses); hardware-backoff counter bits and default
    increment at 64 cores, on the TATAS counter."""
    tuning = {
        f"occ {occupancy} link {link}": config_16(
            tuning=ProtocolTuning(ownership_occupancy=occupancy, chain_link_cost=link)
        )
        for occupancy in (8, 16, 32)
        for link in (2, 4, 8)
    }
    backoff = {
        f"bits {bits} inc {increment}": config_64(
            backoff=BackoffConfig(bits, increment, update_period=64)
        )
        for bits, increment in ((9, 1), (12, 64), (12, 16), (9, 8))
    }
    spec = KernelSpec(scale=scale)
    counter = kernel_cell("tatas", "counter", spec=spec)
    queue = kernel_cell("nonblocking", "M-S queue", spec=spec)
    variants = {
        "tatas counter": (counter, ("MESI", "DeNovoSync"), tuning),
        "M-S queue": (queue, ("MESI", "DeNovoSync0"), tuning),
        "backoff": (counter, ("MESI", "DeNovoSync"), backoff),
    }
    figures = {}
    for label, (workload, protocols, configs) in variants.items():
        rows = []
        for setting, config in configs.items():
            row = FigureRow(setting, config.num_cores)
            rows.append(row)
            cells += [(row, RunSpec(workload, p, config, seed=seed)) for p in protocols]
        figures[label] = FigureResult(f"Sensitivity ({label})", rows, scale)
    return figures


# -- one sweep per table ------------------------------------------------------

run_kernel_figure = _runner(kernel_figure)
run_apps_figure = _runner(apps_figure)
run_padding_ablation = _runner(padding_ablation)
run_sw_backoff_ablation = _runner(sw_backoff_ablation)
run_selfinv_ablation = _runner(selfinv_ablation)
run_eqcheck_ablation = _runner(eqcheck_ablation)
run_lock_design_study = _runner(lock_design_study)
run_rfo_study = _runner(rfo_study)
run_signatures_study = _runner(signatures_study)
run_scaling_study = _runner(scaling_study)
run_sensitivity_study = _runner(sensitivity_study)

"""End-to-end simulator benchmark: four pinned, seeded sweep workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # all four workloads, one child process each
    python3 benchmarks/e2e/run.py --workload lock64 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload apps --trace 1     # per-layer host time + spans
    python3 benchmarks/e2e/run.py --record-golden --seed 1      # rewrite golden/seed1.json

A workload is a fixed list of cells (kernel or app x core count x scale x
protocol), each simulated through ``repro.harness.runner.run_workload``,
one after another in this process.  An untraced run makes a fixed number
of whole passes over the list: ``--seconds`` divided by the workload's
nominal pass time, so two commits always take the same number of samples.
Each cell's host time is scaled by the host's speed measured right beside
it (see ``calibrate``); its time is the median over passes, and the
workload's time is their sum.  A traced run (``--trace 1``) runs one
untraced pass and one pass under ``cProfile``, folds profiled self time
into the simulator's layers and writes the spans to ``.bench_out/``.

Every cell is checked: it must not raise, its statistics digest must match
``golden/seed<N>.json`` (or, for a seed without goldens, repeat across
passes), and kernels whose final memory does not depend on the
interleaving must end with the same memory under every protocol.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any cell failed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"
OUT_DIR = ROOT / ".bench_out"
if not (SRC / "repro").is_dir():
    # Never fall back to some other installed copy of the simulator.
    sys.exit(f"benchmark: no simulator sources at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))

from repro.config import config_for_cores  # noqa: E402
from repro.harness.parallel import app_cell, kernel_cell, materialize_workload  # noqa: E402
from repro.harness.runner import run_workload  # noqa: E402
from repro.protocols import make_protocol  # noqa: E402
from repro.workloads.base import KernelSpec  # noqa: E402

#: What "importing repro" means for ``setup_s``: every module a cell needs.
REPRO_IMPORTS = (
    "repro.config",
    "repro.harness.parallel",
    "repro.harness.runner",
    "repro.protocols",
    "repro.workloads.apps",
    "repro.workloads.registry",
)

# -- the pinned workloads ------------------------------------------------------
#
# Protocol tuples and kernel names are spelled out here, never derived from
# the protocol or workload registries, so registering a new backend or
# kernel cannot silently change what the benchmark measures.

P5 = ("MESI", "DeNovoSync0", "DeNovoSync", "Neat", "SynCron")
P4 = ("MESI", "DeNovoSync", "Neat", "SynCron")

LOCK_KERNELS = ("single Q", "double Q", "stack", "heap", "counter", "large CS")
NONBLOCKING_KERNELS = (
    "M-S queue", "PLJ queue", "Treiber stack", "Herlihy stack", "Herlihy heap", "FAI counter",
)
BARRIER_KERNELS = ("tree", "n-ary", "central", "tree (UB)", "n-ary (UB)", "central (UB)")

#: Kernels whose final memory is the same under every correct protocol
#: (a counter's total, a critical section's writes): any difference across
#: protocols is a coherence bug, whatever the interleaving.
MEMORY_GROUPS = frozenset({
    ("tatas", "counter"), ("tatas", "large CS"),
    ("array", "counter"), ("array", "large CS"),
    ("nonblocking", "FAI counter"),
})

#: Untimed setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: ``cell_tail_s`` averages the cells beyond the highest percentile that
#: leaves at least this many cells beyond it.  The percentile itself is one
#: cell, whose work alone swings by several per cent from seed to seed; the
#: mean of ten swings by about 2 %.
TAIL_CELLS = 10

#: Iterations of the calibration loop (about 3 ms on the reference host).
CALIBRATION_ROUNDS = 30_000
#: The calibration loop's time on the reference host, a 2-vCPU Intel Xeon
#: VM running Python 3.11.7, when no other tenant slows it down.  Reported
#: host times are scaled to this speed.
REFERENCE_CALIBRATION_S = 0.0029

#: The paper's kernel averages of DeNovoSync relative to MESI, printed
#: beside ``rel_time_dns`` / ``rel_traffic_dns`` for reference only.
PAPER_REL_TIME = 0.78
PAPER_REL_TRAFFIC = 0.42


@dataclass(frozen=True)
class Cell:
    """One simulation: a kernel (or app) at a core count, scale and protocol."""

    family: str  # kernel family, or "app"
    name: str
    cores: int
    scale: float
    protocol: str

    @property
    def row(self) -> str:
        return f"{self.family}/{self.name}@{self.cores}x{self.scale}"

    @property
    def id(self) -> str:
        return f"{self.row}/{self.protocol}"

    def workload(self):
        if self.family == "app":
            return materialize_workload(app_cell(self.name, scale=self.scale))
        return materialize_workload(
            kernel_cell(self.family, self.name, spec=KernelSpec(scale=self.scale))
        )


Row = tuple[str, str, int, float]  # family, name, cores, scale


@dataclass(frozen=True)
class Spec:
    """A workload: rows crossed with a protocol tuple."""

    why: str
    rows: tuple[Row, ...]
    protocols: tuple[str, ...]
    #: A small row: its MESI cell is the untimed warm-up, and its MESI and
    #: DeNovoSync cells are the whole workload under ``--smoke``.
    smoke_row: Row
    #: Nominal seconds of one pass on the reference host.  It only turns
    #: ``--seconds`` into a pass count, so the count never depends on how
    #: fast the code under test is.
    pass_s: float

    def cells(self, smoke: bool = False) -> list[Cell]:
        if smoke:
            return [Cell(*self.smoke_row, p) for p in ("MESI", "DeNovoSync")]
        return [Cell(*row, p) for row in self.rows for p in self.protocols]

    def warmup(self) -> Cell:
        return Cell(*self.smoke_row, self.protocols[0])

    def passes(self, seconds: float, smoke: bool = False) -> int:
        return 1 if smoke else max(1, round(seconds / self.pass_s))


WORKLOADS = {
    "lock64": Spec(
        why="contended lock handoff at 64 cores: sync-read misses, registration steals, "
        "MESI invalidation fan-out, DeNovoSync backoff, Neat spin leases",
        rows=tuple(
            (family, name, 64, 0.02)
            for family, name in (
                ("tatas", "double Q"), ("tatas", "counter"), ("tatas", "large CS"),
                ("array", "heap"), ("array", "counter"), ("array", "large CS"),
            )
        ),
        protocols=P5,
        smoke_row=("array", "counter", 64, 0.02),
        pass_s=4.0,
    ),
    # At 64 cores a Herlihy row's simulated work swings by 10-16 % from seed
    # to seed (the copied object's size follows the contention); at 16 cores
    # and ten iterations per thread it swings by about 3 %, and its copy
    # bodies still shift host time from the protocols to mem and workloads.
    "nonblocking": Spec(
        why="CAS-retry loops: M-S and PLJ queues, Treiber stack and FAI counter at 64 cores, "
        "plus Herlihy copy-and-CAS bodies (data load/store runs inside sync) at 16 cores",
        rows=tuple(
            ("nonblocking", name, 64, 0.03)
            for name in ("M-S queue", "PLJ queue", "Treiber stack", "FAI counter")
        ) + tuple(
            ("nonblocking", name, 16, 0.1) for name in ("Herlihy stack", "Herlihy heap")
        ),
        protocols=P5,
        smoke_row=("nonblocking", "FAI counter", 64, 0.03),
        pass_s=4.5,
    ),
    "apps": Spec(
        why="the data path: private and shared loads and stores, self-invalidation at phase "
        "ends and pipeline acquires, LU false sharing; no lock spinning, working sets fit in L1",
        rows=tuple(
            ("app", name, cores, 0.1)
            for name, cores in (
                ("FFT", 64), ("LU", 64), ("radix", 64), ("blackscholes", 64),
                ("ferret", 16), ("x264", 16),
            )
        ),
        protocols=P4,
        smoke_row=("app", "ferret", 16, 0.1),
        pass_s=2.85,
    ),
    "small_cells": Spec(
        why="many short cells where per-cell fixed cost (build, protocol, mesh tables, cores) "
        "is a visible share, plus engine-bound barrier spins at 64 cores",
        rows=tuple(
            (family, name, 16, 0.03)
            for family, names in (
                ("tatas", LOCK_KERNELS), ("array", LOCK_KERNELS),
                ("nonblocking", NONBLOCKING_KERNELS), ("barrier", BARRIER_KERNELS),
            )
            for name in names
        ) + tuple(("barrier", name, 64, 0.03) for name in ("tree", "n-ary", "central")),
        protocols=P5,
        smoke_row=("tatas", "counter", 16, 0.03),
        pass_s=3.2,
    ),
}

# -- metrics -------------------------------------------------------------------

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_kcycles_per_s": "kcycles/s",
    "cell_iqm_s": "s",
    "cell_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_time_dns": "ratio",
    "rel_traffic_dns": "ratio",
}

LAYERS = ("sim", "cpu", "protocols", "mem", "noc", "stats", "workloads", "harness", "other")
#: ``src/repro`` sub-package -> layer; modules outside these fold into "other".
PACKAGE_LAYER = {
    "sim": "sim", "cpu": "cpu", "protocols": "protocols", "mem": "mem", "noc": "noc",
    "stats": "stats", "workloads": "workloads", "synclib": "workloads", "harness": "harness",
}
#: Protocol entry points whose calls from other layers ``protocols.calls`` counts.
PROTOCOL_ENTRY_POINTS = frozenset({"load", "store", "rmw", "self_invalidate"})
#: by-protocol seconds reported as per-layer metrics: the protocols every tuple has.
COMMON_PROTOCOLS = tuple(p for p in P5 if p in P4)

MODEL_COUNT_UNITS = {
    "sim.events": "count",
    "sim.epochs": "count",
    "sim.batched_ratio": "ratio",
    "sim.spin_polls_elided": "count",
    "protocols.accesses": "count",
    "protocols.l1_hit_ratio": "ratio",
    "protocols.sync_read_misses": "count",
    "protocols.read_registration_steals": "count",
    "protocols.registration_transfers": "count",
    "protocols.invalidations_sent": "count",
    "protocols.directory_retries": "count",
    "protocols.hw_backoff_events": "count",
    "protocols.rmws": "count",
    "mem.cold_misses": "count",
    "mem.writebacks": "count",
    "mem.self_invalidated_words": "count",
    "noc.flits": "count",
    "stats.memory_stall_frac": "fraction",
    "stats.hw_backoff_frac": "fraction",
    "stats.barrier_frac": "fraction",
}

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.ns_per_event": "ns/event" for layer in LAYERS},
    "setup.build_s": "s",
    "setup.protocol_s": "s",
    "trace.overhead_ratio": "ratio",
    "cpu.ops": "count",
    "cpu.spin_probes": "count",
    "cpu.lease_ticks": "count",
    "protocols.calls": "count",
    "mem.l1_calls": "count",
    **MODEL_COUNT_UNITS,
    **{f"by_protocol.{p}.wall_s": "s" for p in COMMON_PROTOCOLS},
}

# -- running cells -------------------------------------------------------------


@dataclass
class Outcome:
    """What one cell produced, reduced to the numbers the benchmark uses."""

    cell: Cell
    start: float
    seconds: float
    #: ``seconds`` scaled to the reference host's speed (set by ``run_pass``).
    scaled_s: float = 0.0
    error: str | None = None
    digest: str = ""
    memory: str | None = None
    cycles: int = 0
    flits: int = 0
    events: int = 0
    epochs: int = 0
    batched: int = 0
    elided: int = 0
    counters: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)


@dataclass
class Pass:
    label: str
    start: float
    wall: float
    outcomes: list[Outcome]


def stats_digest(result) -> str:
    """sha256 of the run's simulated statistics, as sorted JSON, 16 hex chars."""
    payload = {"summary": result.summary(), "counters": result.counters.as_dict()}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def run_cell(cell: Cell, seed: int, profiler: cProfile.Profile | None = None) -> Outcome:
    """Simulate one cell; the host time covers ``run_workload`` alone."""
    workload = cell.workload()
    config = config_for_cores(cell.cores)
    result = error = None
    # Earlier cells leave reference cycles behind; collecting them here
    # keeps both this cell's time and the peak RSS from depending on when
    # the collector last ran.
    gc.collect()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = run_workload(workload, cell.protocol, config, seed=seed, keep_protocol=True)
    except Exception:  # a cell that raises is a counted failure, not the end of the run
        error = traceback.format_exc()
    finally:
        if profiler is not None:
            profiler.disable()
    seconds = time.perf_counter() - start
    if result is None:
        return Outcome(cell, start, seconds, error=error)
    protocol = result.meta.pop("protocol")
    memory = None
    if (cell.family, cell.name) in MEMORY_GROUPS:
        snapshot = json.dumps(sorted(protocol.memory.snapshot().items()))
        memory = hashlib.sha256(snapshot.encode()).hexdigest()[:16]
    epoch = result.meta["epoch"]
    batched = epoch["events_batched"]
    return Outcome(
        cell, start, seconds,
        digest=stats_digest(result),
        memory=memory,
        cycles=result.cycles,
        flits=result.total_traffic,
        # Every per-event fallback step fires exactly one event.
        events=batched + sum(epoch["fallbacks"].values()),
        epochs=epoch["epochs"],
        batched=batched,
        elided=epoch["spin_polls_elided"],
        counters=result.counters.as_dict(),
        breakdown=result.avg_time_breakdown,
    )


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    Other tenants of a shared host slow it down by 1.5x and more, for
    seconds or minutes at a time, and an interpreter-bound loop slows down
    with the simulator.  Dividing a cell's seconds by the loop's time measured just
    before and after it removes most of that swing from the result.
    """
    table: dict[int, int] = {}
    total = 0
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        table[i & 255] = total
        total += i * i % 7
    return time.perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference host, given the calibrations around it."""
    return seconds * 2 * REFERENCE_CALIBRATION_S / (before + after)


def run_pass(
    cells: list[Cell], seed: int, label: str = "timed", profiler: cProfile.Profile | None = None
) -> Pass:
    """Every cell once, with a calibration between each two cells."""
    start = time.perf_counter()
    calibrations = [calibrate()]
    outcomes = []
    for cell in cells:
        outcomes.append(run_cell(cell, seed, profiler))
        calibrations.append(calibrate())
    for outcome, before, after in zip(outcomes, calibrations, calibrations[1:]):
        outcome.scaled_s = to_reference(outcome.seconds, before, after)
    return Pass(label, start, time.perf_counter() - start, outcomes)


# -- set-up time ---------------------------------------------------------------


@dataclass
class Setup:
    """One dry pass: ``Workload.build`` and ``make_protocol`` for every cell."""

    start: float
    import_s: float
    calls: list[tuple[str, float, float, float]]  # cell id, build, protocol, end
    #: Calibrations just before and after, as in ``run_pass``.
    calibrations: tuple[float, float]

    @property
    def build_s(self) -> float:
        return sum(protocol - build for _, build, protocol, _ in self.calls)

    @property
    def protocol_s(self) -> float:
        return sum(end - protocol for _, _, protocol, end in self.calls)

    @property
    def total_s(self) -> float:
        return self.import_s + self.build_s + self.protocol_s

    @property
    def scaled_s(self) -> float:
        return to_reference(self.total_s, *self.calibrations)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the simulator."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        f"import {', '.join(REPRO_IMPORTS)}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout.split()[-1])


def measure_setup(cells: list[Cell], seed: int) -> Setup:
    before = calibrate()
    import_s = import_seconds()
    start = time.perf_counter()
    calls = []
    for cell in cells:
        workload = cell.workload()
        config = config_for_cores(cell.cores)
        t0 = time.perf_counter()
        instance = workload.build(config, seed=seed)
        t1 = time.perf_counter()
        make_protocol(cell.protocol, config, instance.allocator)
        calls.append((cell.id, t0, t1, time.perf_counter()))
    return Setup(start, import_s, calls, (before, calibrate()))


# -- correctness ---------------------------------------------------------------


def load_goldens(seed: int) -> dict[str, str] | None:
    path = GOLDEN_DIR / f"seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["digests"]


def failures(passes: list[Pass], goldens: dict[str, str] | None) -> list[dict]:
    """One entry per failed cell run, with the first reason it failed.

    A cell fails if it raised; if its statistics digest differs from the
    golden one, or is missing from a golden file (for a seed without
    goldens: differs from its first pass); or if it belongs to a memory
    group whose protocols disagree on final memory.
    """
    reference = dict(goldens or {})
    found = []
    for index, run in enumerate(passes):
        memories = defaultdict(set)
        for outcome in run.outcomes:
            if outcome.memory is not None:
                memories[outcome.cell.row].add(outcome.memory)
        for outcome in run.outcomes:
            cell_id = outcome.cell.id
            if outcome.error is not None:
                reason = outcome.error.strip().splitlines()[-1]
            elif goldens is not None and cell_id not in goldens:
                reason = "no golden digest for this cell"
            elif outcome.digest != reference.setdefault(cell_id, outcome.digest):
                reason = f"statistics digest {outcome.digest} != {reference[cell_id]}"
            elif len(memories[outcome.cell.row]) > 1:
                reason = "final memory differs across protocols"
            else:
                continue
            found.append({"pass": index, "cell": cell_id, "reason": reason})
    return found


# -- metric computation --------------------------------------------------------


def geomean(values: list[float]) -> float:
    return statistics.geometric_mean(values) if values else float("nan")


def relative_to_mesi(outcomes: list[Outcome]) -> tuple[float, float]:
    """Geomean over rows of DeNovoSync / MESI simulated cycles and flits."""
    rows: dict[str, dict[str, Outcome]] = defaultdict(dict)
    for outcome in outcomes:
        if outcome.error is None:
            rows[outcome.cell.row][outcome.cell.protocol] = outcome
    pairs = [
        (row["DeNovoSync"], row["MESI"])
        for row in rows.values()
        if {"DeNovoSync", "MESI"} <= row.keys()
    ]
    return (
        geomean([dns.cycles / max(1, mesi.cycles) for dns, mesi in pairs]),
        geomean([dns.flits / max(1, mesi.flits) for dns, mesi in pairs]),
    )


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: a cell-time centre that no single cell moves."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def tail_percentile(cells: int) -> int:
    """The highest whole percentile with at least ``TAIL_CELLS`` cells beyond it."""
    return max(50, 100 * (cells - TAIL_CELLS) // cells)


def tail_mean(values: list[float]) -> float:
    """Mean of the cells beyond the ``tail_percentile`` (inclusive method)."""
    ordered = sorted(values)
    below = (len(ordered) - 1) * tail_percentile(len(ordered)) // 100
    return statistics.fmean(ordered[below + 1:])


def per_cell_seconds(passes: list[Pass]) -> list[float]:
    """Each cell's median scaled seconds across passes, in cell order."""
    columns = zip(*([o.scaled_s for o in p.outcomes] for p in passes))
    return [statistics.median(column) for column in columns]


def by_protocol_seconds(passes: list[Pass]) -> dict[str, float]:
    seconds: Counter[str] = Counter()
    for outcome, cell_s in zip(passes[0].outcomes, per_cell_seconds(passes)):
        seconds[outcome.cell.protocol] += cell_s
    return dict(seconds)


def model_counts(outcomes: list[Outcome]) -> dict[str, float]:
    """Modelled-machine and engine counts; exact for a given seed."""
    ok = [o for o in outcomes if o.error is None]
    counters: Counter[str] = Counter()
    components: Counter[str] = Counter()
    for outcome in ok:
        counters.update(outcome.counters)
        components.update(outcome.breakdown)
    events = sum(o.events for o in ok)
    accesses = counters["l1_hits"] + counters["l1_misses"]
    cycles = sum(components.values())
    return {
        "sim.events": events,
        "sim.epochs": sum(o.epochs for o in ok),
        "sim.batched_ratio": sum(o.batched for o in ok) / max(1, events),
        "sim.spin_polls_elided": sum(o.elided for o in ok),
        "protocols.accesses": accesses,
        "protocols.l1_hit_ratio": counters["l1_hits"] / max(1, accesses),
        **{
            f"protocols.{key}": counters[key]
            for key in (
                "sync_read_misses", "read_registration_steals", "registration_transfers",
                "invalidations_sent", "directory_retries", "hw_backoff_events", "rmws",
            )
        },
        **{
            f"mem.{key}": counters[key]
            for key in ("cold_misses", "writebacks", "self_invalidated_words")
        },
        "noc.flits": sum(o.flits for o in ok),
        "stats.memory_stall_frac": components["memory stall"] / max(1, cycles),
        "stats.hw_backoff_frac": components["hw backoff"] / max(1, cycles),
        "stats.barrier_frac": components["barrier"] / max(1, cycles),
    }


def layer_of(filename: str) -> str:
    prefix = str(SRC / "repro") + os.sep
    if not filename.startswith(prefix):
        return "other"
    return PACKAGE_LAYER.get(filename[len(prefix):].split(os.sep)[0], "other")


def fold_profile(profiler: cProfile.Profile) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer self seconds and boundary call counts from a profile.

    Each Python function's self time goes to the layer of its source file.
    A C builtin's self time goes, edge by edge, to the layer of the Python
    function that called it.  Call counts take only the calls that cross
    into a layer, so a subclass calling ``super().store`` counts once.
    """
    core_methods = {
        "_step": "cpu.ops", "_spin_probe": "cpu.spin_probes", "_lease_tick": "cpu.lease_ticks",
    }
    core_file = str(SRC / "repro" / "cpu" / "core.py")
    l1_file = str(SRC / "repro" / "mem" / "l1.py")
    seconds = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys((*core_methods.values(), "protocols.calls", "mem.l1_calls"), 0)

    def calls_from(callers: dict, outside) -> int:
        return sum(edge[0] for (caller_file, _, _), edge in callers.items() if outside(caller_file))

    for (filename, _, name), (_, calls, self_s, _, callers) in pstats.Stats(profiler).stats.items():
        if filename == "~":
            if not callers:
                seconds["other"] += self_s
            for (caller_file, _, _), edge in callers.items():
                seconds[layer_of(caller_file)] += edge[2]
            continue
        layer = layer_of(filename)
        seconds[layer] += self_s
        if filename == core_file and name in core_methods:
            counts[core_methods[name]] += calls
        elif layer == "protocols" and name in PROTOCOL_ENTRY_POINTS:
            counts["protocols.calls"] += calls_from(callers, lambda f: layer_of(f) != "protocols")
        elif filename == l1_file and name[0].isalpha():
            counts["mem.l1_calls"] += calls_from(callers, lambda f: f != l1_file)
    return seconds, counts


# -- one workload --------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, warm up and run one workload; return its full report."""
    spec = WORKLOADS[name]
    cells = spec.cells(smoke)
    goldens = load_goldens(seed)
    begin = time.perf_counter()
    setups = [measure_setup(cells, seed) for _ in range(SETUP_REPEATS)]
    run_cell(spec.warmup(), seed)
    if trace:
        profiler = cProfile.Profile()
        passes = [run_pass(cells, seed, "untraced"), run_pass(cells, seed, "traced", profiler)]
    else:
        passes = [run_pass(cells, seed) for _ in range(spec.passes(seconds, smoke))]
    end = time.perf_counter()

    timed = [p for p in passes if p.label != "traced"]
    found = failures(passes, goldens)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = len(found)
    outcomes = passes[-1].outcomes
    cell_s = per_cell_seconds(timed)
    wall = sum(cell_s)
    rel_time, rel_traffic = relative_to_mesi(outcomes)
    by_protocol = by_protocol_seconds(timed)
    end_to_end = {
        "wall_s": wall,
        "sim_kcycles_per_s": sum(o.cycles for o in outcomes) / 1000 / wall,
        "cell_iqm_s": interquartile_mean(cell_s),
        "cell_tail_s": tail_mean(cell_s),
        "setup_s": statistics.median(s.scaled_s for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rel_time_dns": rel_time,
        "rel_traffic_dns": rel_traffic,
    }
    pct = tail_percentile(len(cell_s))
    report = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "host": host_fingerprint(),
        "spec": {
            "protocols": list(spec.protocols),
            "rows": [
                dict(zip(("family", "name", "cores", "scale"), row))
                for row in ([spec.smoke_row] if smoke else spec.rows)
            ],
            "cells": len(cells),
            "tail_percentile": pct,
            "why": spec.why,
        },
        # The cells' times as one median and one percentile, for reference:
        # each is one or two cells, too seed-dependent to bound.
        "cell_percentiles": {
            "passes": len(timed),
            "p50_s": statistics.median(cell_s),
            f"p{pct}_s": statistics.quantiles(cell_s, n=100, method="inclusive")[pct - 1],
        },
        "golden": f"checked against golden/seed{seed}.json" if goldens is not None
        else f"skipped: no golden/seed{seed}.json (passes checked against each other)",
        "passes": [
            {
                "label": p.label,
                "wall_s": p.wall,
                "cell_s": sum(o.seconds for o in p.outcomes),
                "scaled_cell_s": sum(o.scaled_s for o in p.outcomes),
            }
            for p in passes
        ],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": found,
        "end_to_end": end_to_end,
        "by_protocol_s": by_protocol,
        "model_counts": model_counts(outcomes),
        "cells": {
            o.cell.id: {"scaled_s": s, "digest": o.digest}
            for o, s in zip(timed[0].outcomes, cell_s)
        },
    }
    if trace:
        traced = passes[-1]
        layer_s, calls = fold_profile(profiler)
        events = max(1, report["model_counts"]["sim.events"])
        report["per_layer"] = {
            **{f"{layer}.self_s": layer_s[layer] for layer in LAYERS},
            **{f"{layer}.ns_per_event": layer_s[layer] * 1e9 / events for layer in LAYERS},
            "setup.build_s": statistics.median(s.build_s for s in setups),
            "setup.protocol_s": statistics.median(s.protocol_s for s in setups),
            "trace.overhead_ratio": (
                sum(o.seconds for o in traced.outcomes) / sum(o.seconds for o in timed[0].outcomes)
            ),
            **calls,
            **report["model_counts"],
            **{f"by_protocol.{p}.wall_s": by_protocol.get(p, 0.0) for p in COMMON_PROTOCOLS},
        }
        report["profiled_cell_s"] = sum(o.seconds for o in traced.outcomes)
        report["spans"] = str(write_spans(name, seed, begin, end, setups, passes))
    return report


def write_spans(
    name: str, seed: int, begin: float, end: float, setups: list[Setup], passes: list[Pass]
) -> Path:
    """Write the run's spans as JSONL; times are seconds since the run began."""
    trace_id = uuid.uuid4().hex
    spans: list[dict] = []

    def add(span: str, start: float, stop: float, parent: int | None, **attrs) -> int:
        spans.append({
            "trace_id": trace_id, "span_id": len(spans) + 1, "parent_id": parent, "name": span,
            "start_s": start - begin, "end_s": stop - begin, **attrs,
        })
        return len(spans)

    root = add("workload", begin, end, None, workload=name, seed=seed)
    for index, setup in enumerate(setups):
        stop = setup.calls[-1][3]
        parent = add("setup", setup.start, stop, root, repeat=index, import_s=setup.import_s)
        for cell_id, build, protocol, done in setup.calls:
            add("setup.build", build, protocol, parent, cell=cell_id)
            add("setup.protocol", protocol, done, parent, cell=cell_id)
    for run in passes:
        parent = add("pass", run.start, run.start + run.wall, root, label=run.label)
        for o in run.outcomes:
            add("cell", o.start, o.start + o.seconds, parent, cell=o.cell.id)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    path.write_text("".join(json.dumps(span) + "\n" for span in spans))
    return path


# -- host fingerprint ----------------------------------------------------------


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():  # never report an enclosing repository's commit
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
    }


# -- output --------------------------------------------------------------------


def print_report(report: dict) -> None:
    host, spec = report["host"], report["spec"]
    print(
        f"host: python {host['python']}, {host['cpu_count']} cpus, {host['platform']}, "
        f"{host['cpu_model']}, commit {host['commit'] or 'unknown'}"
    )
    rows = ", ".join(
        f"{r['family']}/{r['name']}@{r['cores']}x{r['scale']}" for r in spec["rows"]
    )
    print(
        f"workload {report['workload']}: seed {report['seed']}, {spec['cells']} cells "
        f"({rows}; {', '.join(spec['protocols'])}), {len(report['passes'])} passes"
    )
    reference = {"rel_time_dns": PAPER_REL_TIME, "rel_traffic_dns": PAPER_REL_TRAFFIC}
    for metric, value in report["end_to_end"].items():
        note = f"   (paper kernel average {reference[metric]})" if metric in reference else ""
        print(f"  {metric:<24} {value:>14.6g} {END_TO_END_UNITS[metric]}{note}")
    print(
        f"  {'fail_ratio':<24} {report['fail_ratio']:>14.6g} fraction "
        f"({report['failed']}/{report['attempted']})"
    )
    print(
        f"  cell_tail_s is the mean of the cells beyond p{spec['tail_percentile']} of "
        f"{spec['cells']}; a cell's time is its median untraced pass, scaled to the reference "
        "host's speed"
    )
    quantiles = report["cell_percentiles"]
    print(
        f"  cell times over {spec['cells']} cells x {quantiles['passes']} passes: "
        + ", ".join(f"{k[:-2]} {v:.6g} s" for k, v in quantiles.items() if k != "passes")
    )
    by_protocol = report["by_protocol_s"].items()
    print("  seconds by protocol: " + ", ".join(f"{p} {s:.3f}" for p, s in by_protocol))
    print(f"  golden digests: {report['golden']}")
    for failure in report["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['cell']}: {failure['reason']}")
    if "per_layer" in report:
        for metric, value in report["per_layer"].items():
            print(f"  {metric:<36} {value:>14.6g} {PER_LAYER_UNITS[metric]}")
        print(f"  spans: {report['spans']}")


def result_line(report: dict) -> dict:
    """The summary line: end-to-end metrics, or per-layer ones if traced."""
    if report["trace"]:
        values, units = report["per_layer"], PER_LAYER_UNITS
    else:
        values, units = report["end_to_end"], END_TO_END_UNITS
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh child process, so peak RSS is its own."""
    OUT_DIR.mkdir(exist_ok=True)
    results, reports = {}, {}
    for name in WORKLOADS:
        path = OUT_DIR / f"report-{name}-seed{args.seed}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--json", str(path),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        if child.returncode not in (0, 1):
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
        reports[name] = json.loads(path.read_text())
    if args.json:
        combined = {"host": host_fingerprint(), "workloads": reports}
        Path(args.json).write_text(json.dumps(combined, indent=2))
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "workloads": results,
    }))
    return 1 if failed else 0


def record_golden(seed: int) -> int:
    """Simulate every cell of every workload once and write its digests."""
    cells = list({c.id: c for spec in WORKLOADS.values() for c in spec.cells()}.values())
    outcomes = [run_cell(cell, seed) for cell in cells]
    found = failures([Pass("golden", 0.0, 0.0, outcomes)], None)
    for failure in found:
        print(f"{failure['cell']}: {failure['reason']}", file=sys.stderr)
    if found:
        return 1
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"seed{seed}.json"
    digests = dict(sorted((o.cell.id, o.digest) for o in outcomes))
    path.write_text(json.dumps({"seed": seed, "digests": digests}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="nominal measuring time per run; divided by the workload's nominal pass time, "
        "it fixes the number of passes",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="two small cells per workload")
    parser.add_argument("--json", help="also write the full report to this file")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.record_golden:
        return record_golden(args.seed)
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2))
    print_report(report)
    print(json.dumps(result_line(report)))
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())

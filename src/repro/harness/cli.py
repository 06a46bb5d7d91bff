"""Command-line entry point: regenerate any of the paper's figures.

Usage (installed as ``denovosync-bench``)::

    denovosync-bench fig3 --cores 16 64 --scale 0.1
    denovosync-bench fig7 --app-scale 0.5
    denovosync-bench ablation-padding
    denovosync-bench ext-rfo
    denovosync-bench all --scale 0.05 --jobs 0 --out results/   # make figures
    denovosync-bench fig3 --help     # the flags one target reads

``--scale 1.0`` runs the paper's full iteration counts (slow in pure
Python); the default keeps a laptop run in minutes while preserving the
figure shapes.

Every target is an argparse subcommand built from one table,
:data:`TARGETS`: an entry names the target's handler, the flags it reads
(shared groups from :data:`GROUPS` plus its own, each defined once in
:data:`FLAGS`) and its own defaults.  A target rejects a flag it would
ignore.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.config import INVARIANT_LEVELS
from repro.harness.experiments import (
    apps_figure,
    eqcheck_ablation,
    fill_rows,
    kernel_figure,
    lock_design_study,
    padding_ablation,
    rfo_study,
    scaling_study,
    selfinv_ablation,
    sensitivity_study,
    signatures_study,
    sw_backoff_ablation,
)
from repro.harness.export import write_figure_csv, write_figure_json
from repro.harness.parallel import default_cache
from repro.harness.plots import render_figure
from repro.harness.report import print_figure
from repro.protocols.registry import (
    default_comparison_set,
    formal_model_set,
    protocol_names,
    sanitize_comparison_set,
)

# -- figure targets -----------------------------------------------------------


def _kernel_figure(family: str, args, cells):
    return kernel_figure(
        cells, family, core_counts=tuple(args.cores), scale=args.scale, seed=args.seed
    )


#: Figure targets, in ``all`` order: name -> (help, builder, flags beyond
#: the sweep and output groups).  A builder takes ``(args, cells)``,
#: appends the target's ``(row, spec)`` cells to ``cells`` and returns one
#: figure or a ``{label: figure}`` dict of variants, with empty rows.
FIGURES: dict[str, tuple[str, Callable, tuple[str, ...]]] = {
    "fig3": ("Figure 3: TATAS-lock kernels", partial(_kernel_figure, "tatas"), ("machine",)),
    "fig4": ("Figure 4: array-lock kernels", partial(_kernel_figure, "array"), ("machine",)),
    "fig5": (
        "Figure 5: non-blocking kernels", partial(_kernel_figure, "nonblocking"), ("machine",)
    ),
    "fig6": ("Figure 6: barrier kernels", partial(_kernel_figure, "barrier"), ("machine",)),
    "fig7": (
        "Figure 7: applications",
        lambda args, cells: apps_figure(cells, scale=args.app_scale, seed=args.seed),
        ("--app-scale", "--seed"),
    ),
    "ablation-padding": (
        "section 7.1.1 lock-padding study",
        lambda args, cells: padding_ablation(cells, scale=args.scale, seed=args.seed),
        ("--scale", "--seed"),
    ),
    "ablation-swbackoff": (
        "section 7.1.1 software-backoff study",
        lambda args, cells: sw_backoff_ablation(cells, scale=args.scale, seed=args.seed),
        ("--scale", "--seed"),
    ),
    "ablation-eqchecks": (
        "section 7.1.3 equality-check study",
        lambda args, cells: eqcheck_ablation(cells, scale=args.scale, seed=args.seed),
        ("--scale", "--seed"),
    ),
    "ablation-selfinv": (
        "section 3 self-invalidation fallback",
        lambda args, cells: selfinv_ablation(cells, scale=args.app_scale, seed=args.seed),
        ("--app-scale", "--seed"),
    ),
    "ext-lock-design": (
        "extension: TATAS, array and MCS locks (section 6)",
        lambda args, cells: lock_design_study(cells, scale=args.scale, seed=args.seed),
        ("--scale", "--seed"),
    ),
    "ext-rfo": (
        "extension: MESI read-for-ownership against DeNovoSync (section 8)",
        lambda args, cells: rfo_study(cells, scale=args.scale, seed=args.seed),
        ("--scale", "--seed"),
    ),
    "ext-signatures": (
        "extension: write signatures against static regions (section 7)",
        lambda args, cells: signatures_study(
            cells, scale=args.scale, app_scale=args.app_scale, seed=args.seed
        ),
        ("--scale", "--app-scale", "--seed"),
    ),
    "ext-scaling": (
        "extension: TATAS counter and tree barrier from 4 to 64 cores",
        lambda args, cells: scaling_study(cells, scale=args.scale, seed=args.seed),
        ("--scale", "--seed"),
    ),
    "ext-sensitivity": (
        "extension: the orderings across unpublished calibration constants",
        lambda args, cells: sensitivity_study(cells, scale=args.scale, seed=args.seed),
        ("--scale", "--seed"),
    ),
}


def _open_out(out_dir: str | None, name: str, fmt: str):
    if out_dir is None:
        return sys.stdout
    os.makedirs(out_dir, exist_ok=True)
    suffix = fmt if fmt in ("csv", "json") else "txt"
    return open(os.path.join(out_dir, f"{name}.{suffix}"), "w")


def _emit(figures: list, out, fmt: str) -> None:
    """Write one target's figures as one document: one CSV header or one
    JSON array (each row's ``figure`` column names its variant), or one
    table (``==`` title) or plot per figure."""
    if fmt == "csv":
        write_figure_csv(figures, out)
    elif fmt == "json":
        write_figure_json(figures, out)
    else:
        for figure in figures:
            if fmt == "plot":
                render_figure(figure, out)
                print(file=out)
            else:
                print_figure(figure, out)


def _run_figures(names: tuple[str, ...], args) -> int:
    """The figure targets and ``all``: build every named target's cells,
    simulate each distinct cell once in one sweep, then print each target
    to stdout, or to ``<--out>/<name>.<txt|csv|json>``.  No file is opened
    before the sweep has finished, so a failing or interrupted sweep
    leaves every previous table in place."""
    cells: list = []
    results = {name: FIGURES[name][1](args, cells) for name in names}
    fill_rows(cells, args.jobs, None if args.no_cache else default_cache(args.cache_dir))
    for name, result in results.items():
        figures = list(result.values()) if isinstance(result, dict) else [result]
        out = _open_out(args.out, name, args.format)
        try:
            _emit(figures, out, args.format)
        finally:
            if out is not sys.stdout:
                out.close()
    return 0


# -- the other targets --------------------------------------------------------


def _check_litmus(names) -> None:
    from repro.mc.litmus import CORPUS

    unknown = [name for name in names if name not in CORPUS]
    if unknown:
        raise SystemExit(
            f"unknown litmus test(s) {unknown}; available: {sorted(CORPUS)}"
        )


def _write_report(report, path: str) -> None:
    """Write a findings report as JSON (an empty path disables it)."""
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report: {path}")


def _fault_plan_from_args(args):
    """Build a :class:`~repro.noc.faults.FaultPlan` from CLI flags, or
    None when no fault flag was given."""
    from repro.noc.faults import FaultPlan

    plan = FaultPlan(
        seed=args.fault_seed,
        delay_jitter=args.fault_jitter,
        reorder_prob=args.fault_reorder,
        evict_period=args.fault_evict_period,
        evict_lines=args.fault_evict_lines,
    )
    return plan if plan.active else None


def _run_chaos(args) -> int:
    """The ``chaos`` target: seeded fault-injection differential sweep."""
    from repro.harness.chaos import run_chaos_sweep

    cells = run_chaos_sweep(
        protocols=tuple(args.protocols),
        seeds=tuple(args.seeds),
        num_cores=args.cores,
        scale=args.scale,
        invariant_level=args.invariant_level,
    )
    failures = 0
    for cell in cells:
        print(cell.describe())
        failures += not cell.ok
    print(
        f"chaos sweep: {len(cells) - failures}/{len(cells)} cells converged "
        f"(seeds {list(args.seeds)}, {args.cores} cores)"
    )
    return 1 if failures else 0


def _run_mc(args) -> int:
    """The ``mc`` target: exhaustive interleaving exploration (DPOR +
    preemption bounding) of the litmus corpus, or counterexample replay."""
    from repro.harness.parallel import run_tasks
    from repro.mc.cells import McCell, run_cell
    from repro.mc.litmus import CORPUS

    if args.replay is not None:
        from repro.mc.artifact import replay_counterexample

        payload, report = replay_counterexample(args.replay)
        violation = payload["violation"]
        print(
            f"replaying {payload['test']} under {payload['protocol']} "
            f"({len(payload['schedule'])} choices): "
            f"[{violation['kind']}] {violation['message']}"
        )
        print(f"  {report.describe()}")
        return 0 if (report.reproduced and report.trace_identical) else 1

    _check_litmus(args.litmus)
    names = args.litmus if args.litmus else sorted(CORPUS)
    protocols = tuple(args.protocols)
    cells = [
        McCell(
            test_name=name,
            protocol=protocol,
            bound=args.bound,
            max_schedules=args.max_schedules,
            out_dir=args.mc_out,
        )
        for name in names
        for protocol in protocols
    ]
    outcomes = run_tasks(run_cell, cells, jobs=args.jobs)
    violations = 0
    for outcome in outcomes:
        print(outcome.describe())
        violations += not outcome.ok
    print(
        f"mc: {len(outcomes) - violations}/{len(outcomes)} cells clean "
        f"(preemption bound {args.bound}, "
        f"{len(names)} tests x {len(protocols)} protocols)"
    )
    return 1 if violations else 0


def _run_sanitize(args) -> int:
    """The ``sanitize`` target: the static lint pass over the synclib and
    workloads sources, plus the dynamic happens-before / self-invalidation
    analysis of every kernel under every requested protocol."""
    from repro.harness.parallel import run_tasks
    from repro.sanitize.cells import SanitizeCell, run_cell
    from repro.sanitize.findings import Report
    from repro.sanitize.lint import (
        SIMULATOR_RULES,
        default_lint_targets,
        lint_paths,
        simulator_lint_targets,
    )
    from repro.workloads.registry import all_kernel_ids

    protocols = tuple(args.protocols)
    report = Report()

    lint_findings, linted = lint_paths(default_lint_targets())
    sim_findings, sim_linted = lint_paths(
        simulator_lint_targets(), rules=SIMULATOR_RULES
    )
    lint_findings = lint_findings + sim_findings
    linted = linted + sim_linted
    report.extend(lint_findings)
    report.lint_files = linted

    cells = [
        SanitizeCell(
            family=family,
            kernel=kernel,
            protocol=protocol,
            cores=args.cores,
            scale=args.scale,
            seed=args.seed,
        )
        for family, kernel in all_kernel_ids()
        for protocol in protocols
    ]
    outcomes = run_tasks(run_cell, cells, jobs=args.jobs)
    dirty = 0
    for outcome in outcomes:
        print(outcome.describe())
        dirty += not outcome.ok
        report.extend(outcome.findings)
        report.cells.append(
            {
                "cell": outcome.cell_id,
                "cores": outcome.cores,
                "records": outcome.records,
                "racy_unannotated_pairs": outcome.racy_unannotated_pairs,
                "stale_read_hazards": outcome.stale_read_hazards,
            }
        )

    for finding in report.findings:
        if finding.severity == "error" and not finding.details.get("cell"):
            print(f"lint error [{finding.kind}] {finding.site}: {finding.message}")
    lint_errors = sum(
        1 for f in lint_findings if f.severity == "error"
    )
    print(
        f"sanitize: {len(outcomes) - dirty}/{len(outcomes)} dynamic cells clean "
        f"({len(all_kernel_ids())} kernels x {len(protocols)} protocols, "
        f"{args.cores} cores, scale {args.scale}); lint: {lint_errors} "
        f"error(s), {sum(1 for f in lint_findings if f.severity == 'warning')} "
        f"warning(s) over {len(linted)} files"
    )
    _write_report(report, args.sanitize_out)
    return 0 if report.clean else 1


def _run_formal(args) -> int:
    """The ``formal`` target: verify each modelled protocol against its
    guarded-action model — static conformance of the implementation,
    small-scope exhaustive exploration of the model's invariants, the
    litmus divergence oracle, and TLA+ module export."""
    from repro.formal.cells import FormalCell, run_cell
    from repro.harness.parallel import run_tasks
    from repro.sanitize.findings import Report

    _check_litmus(args.litmus)
    protocols = tuple(args.protocols)
    unmodelled = [
        name for name in protocols if name not in formal_model_set()
    ]
    if unmodelled:
        raise SystemExit(
            f"protocol(s) {unmodelled} declare no formal model; "
            f"modelled: {list(formal_model_set())}"
        )
    cells = [
        FormalCell(
            protocol=protocol,
            divergence_bound=args.divergence_bound,
            divergence_schedules=args.divergence_schedules,
            litmus=tuple(args.litmus),
        )
        for protocol in protocols
    ]
    outcomes = run_tasks(run_cell, cells, jobs=args.jobs)

    report = Report()
    dirty = 0
    for outcome in outcomes:
        print(outcome.describe())
        dirty += not outcome.ok
        report.extend(outcome.findings)
        report.cells.append(
            {
                "cell": f"{outcome.protocol} x {outcome.model}",
                "protocol": outcome.protocol,
                "model": outcome.model,
                "coverage": outcome.coverage,
                "exploration": outcome.explore_stats,
                "divergence": outcome.oracle_stats,
                "tla_module": outcome.tla_module,
            }
        )
        if args.tla_out:
            os.makedirs(args.tla_out, exist_ok=True)
            path = os.path.join(args.tla_out, f"{outcome.tla_module}.tla")
            with open(path, "w") as fh:
                fh.write(outcome.tla_text)
            print(f"  tla: {path}")
    for finding in report.findings:
        if finding.severity == "error":
            print(f"formal error [{finding.kind}] {finding.site}: "
                  f"{finding.message}")
    print(
        f"formal: {len(outcomes) - dirty}/{len(outcomes)} protocols verified "
        f"({len(report.errors)} error finding(s), "
        f"{len(report.warnings)} warning(s); divergence bound "
        f"{args.divergence_bound}, {args.divergence_schedules} schedules/test)"
    )
    _write_report(report, args.formal_out)
    return 1 if dirty else 0


def _run_serve(args) -> int:
    """The ``serve`` target: run the sweep job server until interrupted."""
    from repro.service import run_server

    cache = None if args.no_cache else default_cache(args.cache_dir)
    run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=cache,
        max_queued=args.max_queued,
        cell_deadline=args.cell_deadline,
        max_retries=args.max_retries,
        drain_timeout=args.drain_timeout,
    )
    return 0


def _run_chaos_service(args) -> int:
    """The ``chaos-service`` target: attack a live sweep server (worker
    SIGKILLs, poisoned cells, deadline overruns) and verify it self-heals."""
    from repro.service.chaos import ChaosConfig, run_service_chaos

    config = ChaosConfig(
        workers=args.workers,
        kills=args.kills,
        kill_interval=args.kill_interval,
        cores=args.cores,
        scale=args.scale,
        seed=args.seed,
        cell_deadline=args.cell_deadline,
        max_retries=args.max_retries,
        wait_timeout=args.wait_timeout,
        cache_dir=args.cache_dir,
    )
    report = run_service_chaos(config)
    print(report.describe())
    return 0 if report.ok else 1


def _submit_cells(args) -> list:
    """The RunSpecs of a ``submit`` sweep: the kernel figure's cells for
    the requested family, kernels, protocols and core counts, in its
    order (cores, then kernel, then protocol)."""
    cells: list = []
    kernel_figure(
        cells, args.sweep_family, core_counts=tuple(args.cores), scale=args.scale,
        seed=args.seed, protocols=tuple(args.protocols), names=args.names,
    )
    return [spec for _, spec in cells]


def _print_job_detail(status: dict) -> None:
    counts = status["counts"]
    print(
        f"job {status['job']}: {status['status']} "
        f"({counts['done']} done, {counts['failed']} failed, "
        f"{counts['running']} running, {counts['queued']} queued)"
    )
    for cell in status.get("cell_details", []):
        line = (
            f"  [{cell['index']:3d}] {cell['workload']:24s} "
            f"{cell['protocol']:12s} {cell['cores']:4d} cores  "
            f"{cell['status']:7s} ({cell['source']})"
        )
        if cell["status"] == "done" and cell["summary"]:
            line += f"  {cell['summary']['cycles']} cycles"
        elif cell["status"] == "failed" and cell["error"]:
            line += f"  {cell['error']['kind']}: {cell['error']['message']}"
        print(line)


def _run_submit(args) -> int:
    """The ``submit`` target: POST a kernel sweep to a running server."""
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    specs = _submit_cells(args)
    accepted = client.submit_specs(specs)
    print(
        f"submitted {accepted['cells']} cells as job {accepted['job']} "
        f"(poll with: status --job {accepted['job']} --port {args.port})"
    )
    if not args.wait:
        return 0
    status = client.wait(accepted["job"], timeout=args.wait_timeout)
    _print_job_detail(status)
    return 0 if status["status"] == "done" else 1


def _run_status(args) -> int:
    """The ``status`` target: server health + job list, or one job's detail."""
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.job:
        _print_job_detail(client.job(args.job))
        return 0
    health = client.healthz()
    workers = health["workers"]
    print(
        f"service {health['status']}: uptime {health['uptime_seconds']}s, "
        f"{workers['alive']}/{workers['configured']} workers alive, "
        f"queue depth {health['queue_depth']}, "
        f"cache hit rate {health['cache_hit_rate']:.0%}, "
        f"{health['cells_per_second']:.2f} cells/s"
    )
    jobs = client.jobs()["jobs"]
    if not jobs:
        print("no jobs submitted")
    for job in jobs:
        counts = job["counts"]
        print(
            f"  {job['job']}: {job['status']} — {counts['done']}/{job['cells']} done, "
            f"{counts['failed']} failed, {counts['running']} running, "
            f"{counts['queued']} queued"
        )
    return 0


def _build_workload(args):
    """Resolve ``--workload family/name`` into (workload, SystemConfig).

    Without ``--cores`` an application runs on its paper core count and
    a kernel or microbenchmark on 16 cores.
    """
    from repro.config import config_for_cores
    from repro.workloads.base import KernelSpec

    family, slash, name = args.workload.partition("/")
    if not slash:
        raise SystemExit(
            f"--workload must be family/name (e.g. tatas/counter, app/LU, "
            f"micro/pingpong), got {args.workload!r}"
        )
    cores = 16
    if family == "app":
        from repro.workloads.apps import app_core_count, make_app

        workload = make_app(name, scale=args.app_scale)
        cores = app_core_count(name)
    elif family == "micro":
        from repro.workloads.micro import MICROBENCHES

        workload = MICROBENCHES[f"micro.{name}"]()
    else:
        from repro.workloads.registry import make_kernel

        workload = make_kernel(family, name, spec=KernelSpec(scale=args.scale))
    if args.cores is not None:
        cores = args.cores
    return workload, config_for_cores(cores, invariant_level=args.invariant_level)


def _run_profile(args) -> int:
    """The ``profile`` target: cProfile one run, print hot functions.

    Profiles exactly what ``run`` executes (workload build excluded, so
    the numbers are all simulation) and prints the top functions by
    cumulative time — the first place to look before optimizing, and the
    quickest way to confirm a change moved the needle.
    """
    import cProfile
    import pstats

    from repro.harness.runner import run_workload

    workload, config = _build_workload(args)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_workload(workload, args.protocol, config, seed=args.seed)
    profiler.disable()

    print(
        f"{result.workload} under {result.protocol} on {config.num_cores} cores: "
        f"{result.cycles} cycles"
    )
    _print_engine_block(result)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    if args.profile_out:
        stats.dump_stats(args.profile_out)
        print(f"raw profile -> {args.profile_out} (pstats/snakeviz readable)")
    return 0


def _print_engine_block(result) -> None:
    """Print the engine counters of one run (profile/run targets).

    Perf-only observability: these live in ``result.meta`` so they never
    reach summaries or stat JSON (the byte-identity surfaces).
    """
    epoch = result.meta.get("epoch")
    if not epoch:
        return
    print("  engine:")
    print(f"    cycles advanced    {epoch['epochs']:12d}")
    print(f"    events fired       {epoch['events_batched']:12d}")
    print(f"    spin polls elided  {epoch['spin_polls_elided']:12d}")


def _run_single(args) -> int:
    """The ``run`` target: one workload, one protocol, full detail."""
    from repro.harness.runner import run_workload
    from repro.sim.watchdog import HangError
    from repro.stats.energy import EnergyModel

    workload, config = _build_workload(args)
    try:
        result = run_workload(
            workload,
            args.protocol,
            config,
            seed=args.seed,
            trace=args.trace is not None,
            fault_plan=_fault_plan_from_args(args),
            max_cycles=args.max_cycles,
        )
    except HangError as exc:
        # The message already carries the watchdog's rendered dump.
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 2
    print(f"{result.workload} under {result.protocol} on {config.num_cores} cores:")
    print(f"  cycles        {result.cycles}")
    print(f"  total traffic {result.total_traffic} flit-crossings")
    print("  time breakdown:")
    for component, cycles in result.avg_time_breakdown.items():
        if cycles:
            print(f"    {component:14s} {cycles:12.1f}")
    print("  traffic breakdown:")
    for klass, flits in result.traffic_breakdown().items():
        if flits:
            print(f"    {klass:14s} {flits:12d}")
    model = EnergyModel()
    print("  dynamic energy (pJ):")
    for part, pj in model.breakdown(result).items():
        print(f"    {part:14s} {pj:12.0f}")
    notable = {
        k: v
        for k, v in sorted(result.counters.as_dict().items())
        if v and not k.startswith("l1_")
    }
    print("  counters:")
    for key, value in notable.items():
        print(f"    {key:32s} {value:10d}")
    _print_engine_block(result)
    if args.trace is not None:
        from repro.trace.events import write_trace

        count = write_trace(result.meta["trace"], args.trace)
        print(f"  trace: {count} records -> {args.trace}")
    return 0


def _run_protocols(args) -> int:
    """The ``protocols`` target: print the protocol plugin registry.

    With ``--check-doc PATH...`` also verify each file still embeds the
    registry-generated markdown table verbatim — CI runs this so the
    README/architecture protocol tables can never drift from the code.
    ``--format json`` emits the capability descriptors as JSON and
    ``--format csv``/``plot`` fall back to the markdown table (the form
    meant for embedding); the default is the aligned text table.
    """
    import json as _json
    from dataclasses import fields

    from repro.protocols.registry import (
        ProtocolInfo,
        iter_protocols,
        registry_markdown_table,
        registry_table,
    )

    if args.format == "json":
        keys = [f.name for f in fields(ProtocolInfo) if f.name != "cls"]
        infos = [{key: getattr(info, key) for key in keys} for info in iter_protocols()]
        print(_json.dumps(infos, indent=2))
    elif args.format in ("csv", "plot"):
        print(registry_markdown_table())
    else:
        print(registry_table())

    failures = 0
    expected = registry_markdown_table()
    for path in args.check_doc:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"{path}: unreadable ({exc})")
            failures += 1
            continue
        if expected in text:
            print(f"{path}: protocol table in sync with the registry")
        else:
            print(
                f"{path}: protocol table is OUT OF SYNC with the registry "
                f"— re-embed the output of "
                f"'denovosync-bench protocols --format csv'"
            )
            failures += 1
    return 1 if failures else 0


# -- the flag table -----------------------------------------------------------


def _preemption_bound(text: str) -> int | None:
    """``--bound`` values: a preemption bound, or any negative for none."""
    bound = int(text)
    return None if bound < 0 else bound


def _deadline_seconds(text: str) -> float:
    """``--cell-deadline`` values: a finite, positive number of seconds."""
    seconds = float(text)
    if not math.isfinite(seconds) or seconds <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a finite, positive number of seconds, got {text!r}"
        )
    return seconds


PROTOCOL_NAMES = list(protocol_names())

#: Every flag, defined once as ``add_argument`` keyword arguments.  A
#: target's ``options`` override them (its own defaults); a sequence
#: default is rendered space-separated where help says ``%(default)s``.
FLAGS: dict[str, dict] = {
    # sweep
    "--jobs": dict(type=int, default=1, help=(
        "worker processes: 1 = serial, in-process (default), N = fan cells out to N "
        "supervised processes, 0 = all host cores; results are identical for any value")),
    "--no-cache": dict(action="store_true", help=(
        "disable the on-disk result cache (every cell re-simulates)")),
    "--cache-dir": dict(help=(
        "result-cache directory (default: $REPRO_CACHE_DIR or results/.runcache; "
        "entries auto-invalidate when any source file under src/repro changes)")),
    # output
    "--out": dict(help=(
        "directory for one report per target, <target>.txt (.csv/.json by --format; "
        "default: stdout)")),
    "--format": dict(choices=["table", "csv", "json", "plot"], default="table", help=(
        "output format: aligned tables (default), CSV, JSON, or ASCII stacked bars")),
    # machine
    "--cores": dict(type=int, default=16, metavar="N", help="core count (default: %(default)s)"),
    "--scale": dict(type=float, default=0.1, help=(
        "fraction of the paper's kernel iteration counts (default: %(default)s)")),
    "--seed": dict(type=int, default=1, help="workload seed (default: 1)"),
    "--app-scale": dict(type=float, default=0.5, help=(
        "input scale of the application models (default: 0.5)")),
    # protocols
    "--protocols": dict(nargs="+", choices=PROTOCOL_NAMES, metavar="NAME", help=(
        f"protocols to sweep, out of {', '.join(PROTOCOL_NAMES)} (default: %(default)s)")),
    # service
    "--host": dict(default="127.0.0.1", help="service address (default: 127.0.0.1)"),
    "--port": dict(type=int, default=8642, help=(
        "service port (default: 8642; serve accepts 0 for an ephemeral port)")),
    # run / profile
    "--workload": dict(required=True, help=(
        "family/name, e.g. tatas/counter, nonblocking/'M-S queue', app/LU, micro/pingpong")),
    "--protocol": dict(default="DeNovoSync", choices=PROTOCOL_NAMES, metavar="NAME", help=(
        f"{', '.join(PROTOCOL_NAMES)} (default: DeNovoSync)")),
    "--invariant-level": dict(choices=INVARIANT_LEVELS, default="off", help=(
        "arm the runtime coherence invariant checker (default: %(default)s)")),
    "--trace": dict(help="write a JSONL access trace to this path"),
    "--max-cycles": dict(type=int, help=(
        "abort with a watchdog dump once the simulated clock passes this cycle")),
    "--fault-seed": dict(type=int, default=0, help="seed of the fault-injection RNG"),
    "--fault-jitter": dict(type=int, default=0, help=(
        "max extra cycles of per-access delay jitter")),
    "--fault-reorder": dict(type=float, default=0.0, help=(
        "probability of deferring (reordering) an access")),
    "--fault-evict-period": dict(type=int, default=0, help=(
        "cycles between forced L1 eviction storms (0: off)")),
    "--fault-evict-lines": dict(type=int, default=1, help=(
        "random evictions attempted per storm")),
    "--top": dict(type=int, default=25, help="number of functions to print (default 25)"),
    "--profile-out": dict(help="also dump the raw cProfile stats to this path"),
    # chaos
    "--seeds": dict(type=int, nargs="+", default=[1, 2, 3], help=(
        "fault seeds to sweep (default: %(default)s)")),
    # mc / formal
    "--litmus": dict(nargs="+", default=(), help=(
        "litmus tests to explore (default: the whole corpus)")),
    "--bound": dict(type=_preemption_bound, default=2, help=(
        "preemption bound (CHESS-style; -1 = unbounded; default: 2)")),
    "--max-schedules": dict(type=int, default=20_000, help=(
        "truncate exploration of a cell after this many schedules (reported as "
        "[truncated])")),
    "--replay": dict(help=(
        "replay a counterexample artifact (.json) and verify it reproduces "
        "deterministically")),
    "--mc-out": dict(default=os.path.join("results", "mc"), help=(
        "directory for counterexample artifacts (default: results/mc)")),
    "--formal-out": dict(default=os.path.join("results", "formal.json"), help=(
        "path of the JSON findings report (default: results/formal.json; empty string "
        "disables)")),
    "--tla-out": dict(default=os.path.join("results", "formal"), help=(
        "directory for exported TLA+ modules (default: results/formal; empty string "
        "disables)")),
    "--divergence-bound": dict(type=int, default=1, help=(
        "preemption bound of the litmus divergence oracle's exploration (default: 1)")),
    "--divergence-schedules": dict(type=int, default=300, help=(
        "schedules replayed per litmus test by the divergence oracle (default: 300)")),
    # sanitize
    "--sanitize-out": dict(default=os.path.join("results", "sanitize.json"), help=(
        "path of the JSON findings report (default: results/sanitize.json; empty "
        "string disables)")),
    # serve / chaos-service
    "--workers": dict(type=int, default=0, help=(
        "persistent worker processes (default: %(default)s; 0 = all host cores)")),
    "--max-queued": dict(type=int, default=4096, help=(
        "admission bound: reject job submissions with HTTP 503 + Retry-After once "
        "this many cells are queued or running (default: 4096)")),
    "--cell-deadline": dict(type=_deadline_seconds, help=(
        "per-cell wall-clock execution budget in seconds; an overrunning cell fails "
        "with deadline_exceeded and its worker is recycled (default: %(default)s)")),
    "--max-retries": dict(type=int, default=3, help=(
        "execution attempts per cell before it settles as failed (default: 3)")),
    "--drain-timeout": dict(type=float, default=30.0, help=(
        "on SIGTERM/SIGINT, wait up to this many seconds for in-flight cells to "
        "settle before exiting (default: 30)")),
    "--kills": dict(type=int, default=2, help=(
        "worker processes to SIGKILL mid-cell (default: 2)")),
    "--kill-interval": dict(type=float, default=0.3, help=(
        "seconds between observing a running cell and killing a worker (default: 0.3)")),
    # submit / status
    "--sweep-family": dict(
        choices=["tatas", "array", "nonblocking", "barrier"], default="tatas",
        help="kernel family of the submitted sweep (default: tatas)"),
    "--names": dict(nargs="+", default=(), help=(
        "kernel bar names to sweep (default: every kernel in the family)")),
    "--wait": dict(action="store_true", help=(
        "poll the job until it settles and print per-cell outcomes (exit 1 if any "
        "cell failed)")),
    "--wait-timeout": dict(type=float, default=600.0, help=(
        "give up waiting after this many seconds (default: 600)")),
    "--job": dict(help="show one job's per-cell detail instead of the job list"),
    # protocols
    "--check-doc": dict(nargs="+", default=(), metavar="PATH", help=(
        "verify each file embeds the registry's generated markdown table verbatim "
        "(exit 1 on drift)")),
}

#: Flags several targets share, by group name.
GROUPS: dict[str, tuple[str, ...]] = {
    "sweep": ("--jobs", "--no-cache", "--cache-dir"),
    "output": ("--out", "--format"),
    "machine": ("--cores", "--scale", "--seed"),
    "protocols": ("--protocols",),
    "service": ("--host", "--port"),
}

FAULT_FLAGS = (
    "--fault-seed", "--fault-jitter", "--fault-reorder", "--fault-evict-period",
    "--fault-evict-lines",
)
#: ``--cores`` of the sweeps that cross several core counts.
CORE_COUNTS = {"--cores": dict(nargs="+", default=[16, 64], help="core counts (default: 16 64)")}
#: ``--cores`` of ``run``/``profile``: the workload picks the default.
WORKLOAD_CORES = {"--cores": dict(
    default=None, help="core count (default: an app's paper core count, else 16)")}


@dataclass(frozen=True)
class Target:
    """One CLI target: its handler, the flags it reads, its defaults."""

    handler: Callable[[argparse.Namespace], int]
    help: str
    #: GROUPS names and single FLAGS names, in help order.
    flags: tuple[str, ...]
    #: per-flag ``add_argument`` overrides: this target's own defaults.
    options: dict[str, dict] = field(default_factory=dict)

    def flag_names(self) -> list[str]:
        names: list[str] = []
        for item in self.flags:
            names.extend(flag for flag in GROUPS.get(item, (item,)) if flag not in names)
        return names


def _figure_target(names: tuple[str, ...], help: str, flags) -> Target:
    flags = ("sweep", "output", *flags)
    options = CORE_COUNTS if "machine" in flags else {}
    return Target(partial(_run_figures, names), help, flags, options)


def _protocols(default: tuple[str, ...]) -> dict[str, dict]:
    return {"--protocols": dict(default=default)}


TARGETS: dict[str, Target] = {
    **{name: _figure_target((name,), help, flags) for name, (help, _, flags) in FIGURES.items()},
    "all": _figure_target(
        tuple(FIGURES), "every figure, ablation and extension study, in order",
        [flag for _, _, flags in FIGURES.values() for flag in flags],
    ),
    "run": Target(
        _run_single, "one workload under one protocol, in full detail",
        ("--workload", "--protocol", "machine", "--app-scale", "--invariant-level",
         "--trace", "--max-cycles", *FAULT_FLAGS),
        WORKLOAD_CORES,
    ),
    "profile": Target(
        _run_profile, "cProfile one run and print its hot functions",
        ("--workload", "--protocol", "machine", "--app-scale", "--invariant-level",
         "--top", "--profile-out"),
        WORKLOAD_CORES,
    ),
    "chaos": Target(
        _run_chaos, "seeded fault-injection differential sweep",
        ("protocols", "--seeds", "--cores", "--scale", "--invariant-level"),
        {**_protocols(default_comparison_set()), "--invariant-level": dict(default="full")},
    ),
    "mc": Target(
        _run_mc, "exhaustive interleaving exploration of the litmus corpus",
        ("protocols", "--litmus", "--bound", "--max-schedules", "--replay", "--mc-out",
         "--jobs"),
        _protocols(default_comparison_set()),
    ),
    "sanitize": Target(
        _run_sanitize, "DRF-contract lint plus dynamic race and stale-read sweep",
        ("protocols", "machine", "--sanitize-out", "--jobs"),
        _protocols(sanitize_comparison_set()),
    ),
    "formal": Target(
        _run_formal, "verify every protocol that has a formal model",
        ("protocols", "--litmus", "--divergence-bound", "--divergence-schedules",
         "--formal-out", "--tla-out", "--jobs"),
        _protocols(formal_model_set()),
    ),
    "serve": Target(
        _run_serve, "run the sweep job server until interrupted",
        ("service", "--workers", "--no-cache", "--cache-dir", "--max-queued",
         "--cell-deadline", "--max-retries", "--drain-timeout"),
    ),
    "submit": Target(
        _run_submit, "submit a kernel sweep to a running server",
        ("service", "--sweep-family", "--names", "protocols", "machine", "--wait",
         "--wait-timeout"),
        {**_protocols(default_comparison_set()), **CORE_COUNTS},
    ),
    "status": Target(
        _run_status, "server health and job list, or one job's detail", ("service", "--job")
    ),
    "chaos-service": Target(
        _run_chaos_service, "kill workers under a live sweep server; verify it self-heals",
        ("--workers", "--kills", "--kill-interval", "machine", "--cell-deadline",
         "--max-retries", "--wait-timeout", "--cache-dir"),
        {"--workers": dict(default=2), "--scale": dict(default=0.3),
         "--cell-deadline": dict(default=5.0)},
    ),
    "protocols": Target(
        _run_protocols, "print the protocol plugin registry", ("--format", "--check-doc")
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: one subcommand per :data:`TARGETS` entry."""
    parser = argparse.ArgumentParser(
        prog="denovosync-bench",
        description="Regenerate the DeNovoSync (ASPLOS'15) evaluation figures.",
    )
    subcommands = parser.add_subparsers(dest="target", required=True, metavar="TARGET")
    for name, target in TARGETS.items():
        sub = subcommands.add_parser(name, help=target.help, description=target.help)
        for flag in target.flag_names():
            kwargs = {**FLAGS[flag], **target.options.get(flag, {})}
            if isinstance(kwargs.get("default"), (list, tuple)):
                shown = " ".join(map(str, kwargs["default"]))
                kwargs["help"] = kwargs["help"].replace("%(default)s", shown)
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(handler=target.handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())

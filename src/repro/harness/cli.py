"""Command-line entry point: regenerate any of the paper's figures.

Usage (installed as ``denovosync-bench``)::

    denovosync-bench fig3 --cores 16 64 --scale 0.1
    denovosync-bench fig7 --scale 0.5
    denovosync-bench ablation-padding
    denovosync-bench all --scale 0.05 --out results/

``--scale 1.0`` runs the paper's full iteration counts (slow in pure
Python); the default keeps a laptop run in minutes while preserving the
figure shapes.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.harness.experiments import (
    run_apps_figure,
    run_eqcheck_ablation,
    run_kernel_figure,
    run_padding_ablation,
    run_selfinv_ablation,
    run_sw_backoff_ablation,
)
from repro.harness.export import write_figure_csv, write_figure_json
from repro.harness.parallel import default_cache
from repro.harness.plots import render_figure
from repro.harness.report import print_figure
from repro.protocols.registry import (
    chaos_comparison_set,
    default_comparison_set,
    protocol_names,
    sanitize_comparison_set,
)

FIGURE_FAMILIES = {
    "fig3": "tatas",
    "fig4": "array",
    "fig5": "nonblocking",
    "fig6": "barrier",
}


def _open_out(out_dir: str | None, name: str):
    if out_dir is None:
        return sys.stdout
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, f"{name}.txt"), "w")


def _emit(result, out, args) -> None:
    if args.format == "csv":
        write_figure_csv(result, out)
    elif args.format == "json":
        write_figure_json(result, out)
    elif args.format == "plot":
        render_figure(result, out)
        print(file=out)
    else:
        print_figure(result, out)


def _sweep_options(args) -> dict:
    """Parallelism/caching options shared by every figure sweep."""
    cache = None if args.no_cache else default_cache(args.cache_dir)
    return {"jobs": args.jobs, "cache": cache}


def _run_one(target: str, args) -> None:
    out = _open_out(args.out, target)
    sweep = _sweep_options(args)
    try:
        if target in FIGURE_FAMILIES:
            result = run_kernel_figure(
                FIGURE_FAMILIES[target],
                core_counts=tuple(args.cores),
                scale=args.scale,
                seed=args.seed,
                **sweep,
            )
            _emit(result, out, args)
        elif target == "fig7":
            result = run_apps_figure(scale=args.app_scale, seed=args.seed, **sweep)
            _emit(result, out, args)
        elif target == "ablation-padding":
            for label, result in run_padding_ablation(scale=args.scale, **sweep).items():
                print(f"-- {label} --", file=out)
                _emit(result, out, args)
        elif target == "ablation-swbackoff":
            for label, result in run_sw_backoff_ablation(
                scale=args.scale, **sweep
            ).items():
                print(f"-- {label} --", file=out)
                _emit(result, out, args)
        elif target == "ablation-eqchecks":
            for label, result in run_eqcheck_ablation(scale=args.scale, **sweep).items():
                print(f"-- {label} --", file=out)
                _emit(result, out, args)
        elif target == "ablation-selfinv":
            for label, result in run_selfinv_ablation(
                scale=args.app_scale, **sweep
            ).items():
                print(f"-- {label} --", file=out)
                _emit(result, out, args)
        else:
            raise SystemExit(f"unknown target {target!r}")
    finally:
        if out is not sys.stdout:
            out.close()


ALL_TARGETS = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablation-padding",
    "ablation-swbackoff",
    "ablation-eqchecks",
    "ablation-selfinv",
]


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
    from repro.protocols.registry import chaos_comparison_set

    protocols = (
        tuple(args.protocols) if args.protocols else chaos_comparison_set()
    )
    cells = run_chaos_sweep(
        protocols=protocols,
        seeds=tuple(args.seeds),
        num_cores=args.cores[0],
        scale=args.scale,
        invariant_level=args.invariant_level or "full",
    )
    failures = 0
    for cell in cells:
        print(cell.describe())
        failures += not cell.ok
    print(
        f"chaos sweep: {len(cells) - failures}/{len(cells)} cells converged "
        f"(seeds {list(args.seeds)}, {args.cores[0]} cores)"
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

    names = args.litmus or sorted(CORPUS)
    unknown = [name for name in names if name not in CORPUS]
    if unknown:
        raise SystemExit(
            f"unknown litmus test(s) {unknown}; available: {sorted(CORPUS)}"
        )
    from repro.protocols.registry import default_comparison_set

    protocols = (
        tuple(args.protocols) if args.protocols else default_comparison_set()
    )
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
    from repro.protocols.registry import sanitize_comparison_set
    from repro.sanitize.lint import (
        SIMULATOR_RULES,
        default_lint_targets,
        lint_paths,
        simulator_lint_targets,
    )
    from repro.workloads.registry import all_kernel_ids

    protocols = (
        tuple(args.protocols) if args.protocols else sanitize_comparison_set()
    )
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
            cores=args.cores[0],
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
        f"{args.cores[0]} cores, scale {args.scale}); lint: {lint_errors} "
        f"error(s), {sum(1 for f in lint_findings if f.severity == 'warning')} "
        f"warning(s) over {len(linted)} files"
    )
    if args.sanitize_out:
        os.makedirs(os.path.dirname(args.sanitize_out) or ".", exist_ok=True)
        with open(args.sanitize_out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report: {args.sanitize_out}")
    return 0 if report.clean else 1


def _run_formal(args) -> int:
    """The ``formal`` target: verify each modelled protocol against its
    guarded-action model — static conformance of the implementation,
    small-scope exhaustive exploration of the model's invariants, the
    litmus divergence oracle, and TLA+ module export."""
    from repro.formal.cells import FormalCell, run_cell
    from repro.harness.parallel import run_tasks
    from repro.mc.litmus import CORPUS
    from repro.protocols.registry import formal_model_set
    from repro.sanitize.findings import Report

    unknown = [name for name in (args.litmus or []) if name not in CORPUS]
    if unknown:
        raise SystemExit(
            f"unknown litmus test(s) {unknown}; available: {sorted(CORPUS)}"
        )
    protocols = (
        tuple(args.protocols) if args.protocols else formal_model_set()
    )
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
            litmus=tuple(args.litmus) if args.litmus else (),
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
    if args.formal_out:
        os.makedirs(os.path.dirname(args.formal_out) or ".", exist_ok=True)
        with open(args.formal_out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"report: {args.formal_out}")
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
        workers=args.workers or 2,
        kills=args.kills,
        kill_interval=args.kill_interval,
        cores=args.cores[0],
        scale=args.scale if args.scale_given else 0.3,
        seed=args.seed,
        cell_deadline=args.cell_deadline or 5.0,
        max_retries=args.max_retries,
        wait_timeout=args.wait_timeout,
        cache_dir=args.cache_dir,
    )
    report = run_service_chaos(config)
    print(report.describe())
    return 0 if report.ok else 1


def _submit_cells(args) -> list:
    """Build the RunSpec cells of a ``submit`` sweep: every requested
    kernel x protocol x core count, mirroring :func:`run_kernel_figure`."""
    from repro.config import config_for_cores
    from repro.harness.parallel import RunSpec, kernel_cell
    from repro.workloads.base import KernelSpec
    from repro.workloads.registry import kernel_names

    from repro.protocols.registry import default_comparison_set

    names = args.names or kernel_names(args.sweep_family)
    protocols = (
        tuple(args.protocols) if args.protocols else default_comparison_set()
    )
    specs = []
    for cores in args.cores:
        config = config_for_cores(cores)
        for name in names:
            for protocol in protocols:
                specs.append(
                    RunSpec(
                        kernel_cell(
                            args.sweep_family, name, spec=KernelSpec(scale=args.scale)
                        ),
                        protocol,
                        config,
                        seed=args.seed,
                    )
                )
    return specs


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
    """Resolve ``--workload family/name`` into (workload, core count)."""
    from repro.workloads.base import KernelSpec

    spec = args.workload
    if "/" in spec:
        family, name = spec.split("/", 1)
        if family == "app":
            from repro.workloads.apps import app_core_count, make_app

            workload = make_app(name, scale=args.app_scale)
            cores = args.cores[0] if args.cores_given else app_core_count(name)
        elif family == "micro":
            from repro.workloads.micro import MICROBENCHES

            workload = MICROBENCHES[f"micro.{name}"]()
            cores = args.cores[0]
        else:
            from repro.workloads.registry import make_kernel

            workload = make_kernel(family, name, spec=KernelSpec(scale=args.scale))
            cores = args.cores[0]
    else:
        raise SystemExit(
            f"--workload must be family/name (e.g. tatas/counter, app/LU, "
            f"micro/pingpong), got {spec!r}"
        )
    return workload, cores


def _run_profile(args) -> int:
    """The ``profile`` target: cProfile one run, print hot functions.

    Profiles exactly what ``run`` executes (workload build excluded, so
    the numbers are all simulation) and prints the top functions by
    cumulative time — the first place to look before optimizing, and the
    quickest way to confirm a change moved the needle.
    """
    import cProfile
    import pstats

    from repro.config import config_for_cores
    from repro.harness.runner import run_workload

    workload, cores = _build_workload(args)
    overrides = {}
    if args.invariant_level is not None:
        overrides["invariant_level"] = args.invariant_level
    config = config_for_cores(cores, **overrides)

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_workload(workload, args.protocol, config, seed=args.seed)
    profiler.disable()

    print(
        f"{result.workload} under {result.protocol} on {cores} cores: "
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
    from repro.config import config_for_cores
    from repro.harness.runner import run_workload
    from repro.stats.energy import EnergyModel

    workload, cores = _build_workload(args)

    overrides = {}
    if args.invariant_level is not None:
        overrides["invariant_level"] = args.invariant_level
    config = config_for_cores(cores, **overrides)
    from repro.sim.watchdog import HangError

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
    print(f"{result.workload} under {result.protocol} on {cores} cores:")
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

    from repro.protocols.registry import (
        iter_protocols,
        registry_markdown_table,
        registry_table,
    )

    if args.format == "json":
        infos = [
            {
                key: getattr(info, key)
                for key in (
                    "name", "label", "paper", "summary", "tracking",
                    "invalidation", "backoff", "requires_annotations",
                    "fault_hooks", "runtime_invariants",
                    "default_comparison", "app_comparison",
                )
            }
            for info in iter_protocols()
        ]
        print(_json.dumps(infos, indent=2))
    elif args.format in ("csv", "plot"):
        print(registry_markdown_table())
    else:
        print(registry_table())

    failures = 0
    expected = registry_markdown_table()
    for path in args.check_doc or []:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="denovosync-bench",
        description="Regenerate the DeNovoSync (ASPLOS'15) evaluation figures.",
    )
    parser.add_argument(
        "target",
        choices=ALL_TARGETS
        + ["all", "run", "profile", "chaos", "mc", "sanitize", "formal",
           "serve", "submit", "status", "chaos-service", "protocols"],
    )
    parser.add_argument(
        "--workload", default=None,
        help="for 'run': family/name, e.g. tatas/counter, nonblocking/"
        "'M-S queue', app/LU, micro/pingpong",
    )
    parser.add_argument(
        "--protocol", default="DeNovoSync",
        choices=list(protocol_names()), metavar="NAME",
        help="for 'run': " + ", ".join(protocol_names())
        + " (default: DeNovoSync)",
    )
    parser.add_argument(
        "--trace", default=None,
        help="for 'run': write a JSONL access trace to this path",
    )
    parser.add_argument(
        "--top", type=int, default=25,
        help="for 'profile': number of functions to print (default 25)",
    )
    parser.add_argument(
        "--profile-out", default=None,
        help="for 'profile': also dump the raw cProfile stats to this path",
    )
    parser.add_argument(
        "--cores", type=int, nargs="+", default=[16, 64],
        help="core counts for the kernel figures (default: 16 64)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="fraction of the paper's kernel iteration counts (default 0.1)",
    )
    parser.add_argument(
        "--app-scale", type=float, default=0.5,
        help="input scale for the Figure 7 application models (default 0.5)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--max-cycles", type=int, default=None,
        help="for 'run': abort with a watchdog dump once the simulated "
        "clock passes this cycle (guards against runaway runs)",
    )
    parser.add_argument(
        "--invariant-level", choices=["off", "sampled", "full"], default=None,
        help="arm the runtime coherence invariant checker (default: off "
        "for 'run', full for 'chaos')",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3],
        help="for 'chaos': fault seeds to sweep (default: 1 2 3)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="for 'run': seed of the fault-injection RNG",
    )
    parser.add_argument(
        "--fault-jitter", type=int, default=0,
        help="for 'run': max extra cycles of per-access delay jitter",
    )
    parser.add_argument(
        "--fault-reorder", type=float, default=0.0,
        help="for 'run': probability of deferring (reordering) an access",
    )
    parser.add_argument(
        "--fault-evict-period", type=int, default=0,
        help="for 'run': cycles between forced L1 eviction storms (0: off)",
    )
    parser.add_argument(
        "--fault-evict-lines", type=int, default=1,
        help="for 'run': random evictions attempted per storm",
    )
    parser.add_argument(
        "--bound", type=int, default=2,
        help="for 'mc': preemption bound (CHESS-style; -1 = unbounded)",
    )
    parser.add_argument(
        "--litmus", nargs="+", default=None,
        help="for 'mc'/'formal': litmus tests to explore (default: the "
        "whole corpus)",
    )
    parser.add_argument(
        "--protocols", nargs="+", default=None,
        choices=list(protocol_names()), metavar="NAME",
        help="for 'mc'/'sanitize'/'formal'/'chaos'/'submit': protocols to "
        "sweep, "
        "out of " + ", ".join(protocol_names())
        + " (default: the registry's capability-filtered set per "
        "target: mc/submit "
        + " ".join(default_comparison_set())
        + "; sanitize " + " ".join(sanitize_comparison_set())
        + "; chaos " + " ".join(chaos_comparison_set()) + ")",
    )
    parser.add_argument(
        "--check-doc", nargs="+", default=None, metavar="PATH",
        help="for 'protocols': verify each file embeds the registry's "
        "generated markdown table verbatim (exit 1 on drift)",
    )
    parser.add_argument(
        "--max-schedules", type=int, default=20_000,
        help="for 'mc': truncate exploration of a cell after this many "
        "schedules (reported as [truncated])",
    )
    parser.add_argument(
        "--replay", default=None,
        help="for 'mc': replay a counterexample artifact (.json) and "
        "verify it reproduces deterministically",
    )
    parser.add_argument(
        "--mc-out", default=os.path.join("results", "mc"),
        help="for 'mc': directory for counterexample artifacts "
        "(default: results/mc)",
    )
    parser.add_argument(
        "--formal-out", default=os.path.join("results", "formal.json"),
        help="for 'formal': path of the JSON findings report "
        "(default: results/formal.json; empty string disables)",
    )
    parser.add_argument(
        "--tla-out", default=os.path.join("results", "formal"),
        help="for 'formal': directory for exported TLA+ modules "
        "(default: results/formal; empty string disables)",
    )
    parser.add_argument(
        "--divergence-bound", type=int, default=1,
        help="for 'formal': preemption bound of the litmus divergence "
        "oracle's exploration (default: 1)",
    )
    parser.add_argument(
        "--divergence-schedules", type=int, default=300,
        help="for 'formal': schedules replayed per litmus test by the "
        "divergence oracle (default: 300)",
    )
    parser.add_argument(
        "--sanitize-out", default=os.path.join("results", "sanitize.json"),
        help="for 'sanitize': path of the JSON findings report "
        "(default: results/sanitize.json; empty string disables)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for figure sweeps: 1 = serial (default), "
        "N = fan cells out to N processes, 0 = all host cores; results "
        "are identical for any value",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (every cell re-simulates)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "results/.runcache; entries auto-invalidate when any source "
        "file under src/repro changes)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="for 'serve'/'submit'/'status': service address "
        "(default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8642,
        help="for 'serve'/'submit'/'status': service port (default: 8642; "
        "serve accepts 0 for an ephemeral port)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="for 'serve': persistent worker processes "
        "(default: 0 = all host cores)",
    )
    parser.add_argument(
        "--max-queued", type=int, default=4096,
        help="for 'serve': admission bound — reject job submissions with "
        "HTTP 503 + Retry-After once this many cells are queued or "
        "running (default: 4096)",
    )
    parser.add_argument(
        "--cell-deadline", type=float, default=None,
        help="for 'serve'/'chaos-service': per-cell wall-clock execution "
        "budget in seconds; an overrunning cell fails with "
        "deadline_exceeded and its worker is recycled (default: none)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3,
        help="for 'serve'/'chaos-service': execution attempts per cell "
        "before it settles as failed (default: 3)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="for 'serve': on SIGTERM/SIGINT, wait up to this many "
        "seconds for in-flight cells to settle before exiting "
        "(default: 30)",
    )
    parser.add_argument(
        "--kills", type=int, default=2,
        help="for 'chaos-service': worker processes to SIGKILL mid-cell "
        "(default: 2)",
    )
    parser.add_argument(
        "--kill-interval", type=float, default=0.3,
        help="for 'chaos-service': seconds between observing a running "
        "cell and killing a worker (default: 0.3)",
    )
    parser.add_argument(
        "--sweep-family", choices=["tatas", "array", "nonblocking", "barrier"],
        default="tatas",
        help="for 'submit': kernel family of the submitted sweep "
        "(default: tatas)",
    )
    parser.add_argument(
        "--names", nargs="+", default=None,
        help="for 'submit': kernel bar names to sweep "
        "(default: every kernel in the family)",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="for 'submit': poll the job until it settles and print "
        "per-cell outcomes (exit 1 if any cell failed)",
    )
    parser.add_argument(
        "--wait-timeout", type=float, default=600.0,
        help="for 'submit --wait': give up after this many seconds "
        "(default: 600)",
    )
    parser.add_argument(
        "--job", default=None,
        help="for 'status': show one job's per-cell detail instead of "
        "the job list",
    )
    parser.add_argument(
        "--out", default=None,
        help="directory for per-figure .txt reports (default: stdout)",
    )
    parser.add_argument(
        "--format", choices=["table", "csv", "json", "plot"], default="table",
        help="output format: aligned tables (default), CSV, JSON, or "
        "ASCII stacked bars",
    )
    args = parser.parse_args(argv)
    args.cores_given = "--cores" in (argv or [])
    args.scale_given = "--scale" in (argv or [])

    if args.target == "run":
        if args.workload is None:
            parser.error("'run' requires --workload family/name")
        return _run_single(args)
    if args.target == "profile":
        if args.workload is None:
            parser.error("'profile' requires --workload family/name")
        return _run_profile(args)
    if args.target == "chaos":
        return _run_chaos(args)
    if args.target == "mc":
        if args.bound is not None and args.bound < 0:
            args.bound = None  # -1: unbounded exploration
        return _run_mc(args)
    if args.target == "sanitize":
        return _run_sanitize(args)
    if args.target == "formal":
        return _run_formal(args)
    if args.target == "serve":
        return _run_serve(args)
    if args.target == "submit":
        return _run_submit(args)
    if args.target == "status":
        return _run_status(args)
    if args.target == "chaos-service":
        return _run_chaos_service(args)
    if args.target == "protocols":
        return _run_protocols(args)

    targets = ALL_TARGETS if args.target == "all" else [args.target]
    for target in targets:
        _run_one(target, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

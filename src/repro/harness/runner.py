"""Run one (workload, protocol, system) configuration to completion."""

from __future__ import annotations

from repro.config import SystemConfig
from repro.cpu.core import Core
from repro.protocols import make_protocol
from repro.sim.engine import Simulator
from repro.sim.watchdog import (
    DEFAULT_PROGRESS_WINDOW,
    HangError,
    SimulationStuck,
    Watchdog,
)
from repro.stats.collector import RunResult
from repro.workloads.base import Workload

#: Safety net against livelocked kernels; generous for paper-scale runs.
DEFAULT_MAX_EVENTS = 50_000_000

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "HangError",
    "SimulationStuck",
    "run_workload",
]


def run_workload(
    workload: Workload,
    protocol_name: str,
    config: SystemConfig,
    *,
    seed: int = 0,
    max_events: int | None = DEFAULT_MAX_EVENTS,
    keep_protocol: bool = False,
    trace: bool = False,
    fault_plan=None,
    max_cycles: int | None = None,
    progress_window: int | None = DEFAULT_PROGRESS_WINDOW,
) -> RunResult:
    """Build ``workload`` for ``config``, run it under ``protocol_name``.

    Returns the :class:`RunResult` with execution-time decomposition,
    traffic by message class, and protocol event counters.  With
    ``keep_protocol`` the protocol object is attached under
    ``result.meta["protocol"]`` so callers can inspect final memory and
    cache state (used by tests and examples).  With ``trace`` every
    access is recorded and attached under ``result.meta["trace"]`` (a
    list of :class:`~repro.trace.events.AccessRecord`).

    Liveness is supervised by a :class:`~repro.sim.watchdog.Watchdog`:
    ``progress_window`` cycles without any core retiring an operation
    (None disables the check), or the clock passing ``max_cycles``,
    raises :class:`~repro.sim.watchdog.HangError` with a diagnostic
    dump; an event queue that drains with unfinished cores raises
    :class:`~repro.sim.watchdog.SimulationStuck` (a ``HangError``).

    ``fault_plan`` (a :class:`~repro.noc.faults.FaultPlan`) perturbs the
    run with seeded legal faults — delay jitter, bounded reordering,
    eviction storms; the injector is attached under
    ``result.meta["fault_injector"]`` for inspection.
    """
    instance = workload.build(config, seed=seed)
    protocol = make_protocol(protocol_name, config, instance.allocator)
    injector = None
    if fault_plan is not None and fault_plan.active:
        from repro.noc.faults import FaultInjector

        injector = FaultInjector(protocol, fault_plan)
        protocol = injector
    if trace:
        from repro.trace.recorder import TracingProtocol

        protocol = TracingProtocol(protocol)
    for addr, value in instance.initial_values.items():
        protocol.memory.write(addr, value)

    sim = Simulator()
    cores = [Core(core_id, sim, protocol) for core_id in range(config.num_cores)]
    watchdog = Watchdog(
        sim, cores, protocol, window=progress_window, max_cycles=max_cycles
    )
    sim.watchdog = watchdog
    if injector is not None:
        injector.attach(sim, lambda: any(not core.done for core in cores))
    for core, program in zip(cores, instance.programs):
        core.start(program)

    sim.run(max_events=max_events)

    watchdog.check_quiescent()
    if config.invariant_level != "off":
        # The audit runs before each call, so check the state the last
        # call left too.
        protocol.check_invariants()

    cycles = max(core.finish_time for core in cores)
    meta = dict(instance.meta)
    # Perf-only observability: summaries/stat JSON exclude meta, so the
    # engine counters never perturb the byte-identity contract.
    meta["epoch"] = sim.epoch_stats
    if keep_protocol:
        meta["protocol"] = protocol
    if trace:
        meta["trace"] = protocol.records
    if injector is not None:
        meta["fault_injector"] = injector
    return RunResult(
        workload=instance.name,
        protocol=protocol_name,
        num_cores=config.num_cores,
        cycles=cycles,
        per_core_time=[core.time for core in cores],
        traffic=protocol.traffic,
        counters=protocol.counters,
        meta=meta,
    )

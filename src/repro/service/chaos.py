"""Service-level chaos harness: prove the sweep server self-heals.

This is the failure-mode counterpart of the protocol chaos sweep
(:mod:`repro.harness.chaos`): instead of perturbing the *simulated*
machine, it attacks the *service* — a live :class:`SweepService` with a
real worker pool — while a sweep is in flight:

* **worker murder**: SIGKILLs live worker processes mid-cell (the
  production shape of an OOM kill or segfault), which breaks the
  process pool outright;
* **poisoned cells**: cells whose materialization raises in the worker,
  exercising the retry/backoff path to a structured terminal failure;
* **slow cells**: cells whose simulation overruns the per-cell deadline,
  exercising deadline enforcement and the pool recycle that frees the
  hung worker.

The harness then asserts the service's self-healing contract:

1. every cell **settles** — ``done`` or structured ``failed`` (with the
   right error kind); no cell and no job is stuck ``running``;
2. the dedupe/cache invariant holds: each unique cell simulated **at
   most once successfully** (`cells_simulated` == freshly-run done
   cells), and an immediate resubmission of the surviving sweep is 100%
   cache hits;
3. recovery is observable: ``workers_recycled_total`` covers every kill
   and ``/healthz`` reports ``ok`` again after the storm;
4. the pool is *usable* afterwards: a fresh sweep submitted after all
   failures completes normally.

Run it via ``denovosync-bench chaos-service`` (the ``chaos-service-smoke``
CI job) or programmatically through :func:`run_service_chaos`.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.config import config_for_cores
from repro.harness.parallel import ResultCache, RunSpec, kernel_cell
from repro.harness.supervisor import RetryPolicy
from repro.protocols.registry import default_comparison_set
from repro.service.client import ServiceClient
from repro.service.server import SweepService
from repro.workloads.base import KernelSpec

#: Kernel that does not exist: materialization raises ``KeyError`` inside
#: the worker on every attempt (a deterministically poisoned cell).
POISON_KERNEL = "chaos-no-such-kernel"

#: Kernel scale of a slow cell per second of ``cell_deadline``.  One
#: scale unit of 16-core MESI tatas/counter simulates for about 0.7 s on
#: a 2-vCPU Xeon, so the cell would run ~14x past its deadline; the
#: supervisor kills it at the deadline, so the margin costs no wall time.
SLOW_SCALE_PER_DEADLINE_SECOND = 20.0


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run: fault budget, sweep shape, and service tuning."""

    workers: int = 2
    #: SIGKILLs delivered to live workers while cells are running.
    kills: int = 2
    #: seconds between observing a running cell and pulling the trigger.
    kill_interval: float = 0.3
    cores: int = 16
    #: registry-derived default: the default comparison set.
    protocols: tuple = field(default_factory=default_comparison_set)
    kernels: tuple = ("counter", "stack")
    #: scale of the healthy cells — large enough that kills land mid-cell.
    scale: float = 0.3
    seed: int = 1
    #: cells that raise in the worker on every attempt (retry path).
    poison_cells: int = 1
    #: cells that overrun the deadline (deadline + recycle path); their
    #: size follows from ``cell_deadline``.
    slow_cells: int = 1
    cell_deadline: float = 5.0
    max_retries: int = 3
    wait_timeout: float = 240.0
    #: result-cache directory; None uses a throwaway temp dir (cold cache).
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.slow_cells > 0 and self.cell_deadline <= 0:
            raise ValueError(
                f"slow cells need a positive cell_deadline, got {self.cell_deadline}"
            )


@dataclass
class ChaosReport:
    """Outcome of one chaos run: per-check verdicts and the evidence."""

    checks: list = field(default_factory=list)  # (name, ok, detail)
    kills_delivered: int = 0
    cells_total: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def describe(self) -> str:
        lines = [
            f"service chaos: {sum(ok for _, ok, _ in self.checks)}/"
            f"{len(self.checks)} checks passed, {self.kills_delivered} "
            f"worker kill(s) delivered over {self.cells_total} cells"
        ]
        for name, ok, detail in self.checks:
            mark = "ok " if ok else "FAIL"
            lines.append(f"  [{mark}] {name}" + (f": {detail}" if detail else ""))
        for name in (
            "cells_simulated", "cells_retried", "workers_recycled",
            "cells_crashed", "cells_deadline_exceeded", "cache_hits",
        ):
            if name in self.counters:
                lines.append(f"  {name}_total = {self.counters[name]}")
        return "\n".join(lines)


class _ServiceThread:
    """A live service with its event loop on a daemon thread — the same
    in-process production topology the e2e tests use."""

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.host, self.port = self.call(service.start())

    def call(self, coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self) -> None:
        try:
            self.call(self.service.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(10)
            self.loop.close()


def healthy_specs(config: ChaosConfig) -> list[RunSpec]:
    system = config_for_cores(config.cores)
    return [
        RunSpec(
            kernel_cell("tatas", name, KernelSpec(scale=config.scale)),
            protocol, system, seed=config.seed,
        )
        for name in config.kernels
        for protocol in config.protocols
    ]


def slow_specs(config: ChaosConfig) -> list[RunSpec]:
    system = config_for_cores(config.cores)
    scale = config.cell_deadline * SLOW_SCALE_PER_DEADLINE_SECOND
    return [
        RunSpec(
            kernel_cell("tatas", "counter", KernelSpec(scale=scale)),
            "MESI", system, seed=config.seed + 9000 + i,
        )
        for i in range(config.slow_cells)
    ]


def poison_specs(config: ChaosConfig) -> list[RunSpec]:
    system = config_for_cores(config.cores)
    return [
        RunSpec(
            kernel_cell("tatas", POISON_KERNEL, KernelSpec(scale=config.scale)),
            "MESI", system, seed=config.seed + i,
        )
        for i in range(config.poison_cells)
    ]


def _kill_workers(
    service: SweepService,
    client: ServiceClient,
    job_id: str,
    config: ChaosConfig,
    rng: random.Random,
) -> int:
    """Deliver up to ``config.kills`` SIGKILLs, each only while at least
    one cell is provably running (so the kill lands mid-cell); gives up
    on a kill if the job settles first."""
    delivered = 0
    for _ in range(config.kills):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status = client.job(job_id)
            if status["status"] in ("done", "failed"):
                return delivered  # nothing left to murder mid-cell
            if service.supervisor.running_count() > 0:
                break
            time.sleep(0.02)
        time.sleep(config.kill_interval * (0.5 + rng.random()))
        pids = service.supervisor.worker_pids()
        if not pids:
            continue
        try:
            os.kill(rng.choice(pids), signal.SIGKILL)
            delivered += 1
        except (ProcessLookupError, PermissionError):
            continue  # worker exited between listing and killing
    return delivered


def run_service_chaos(config: ChaosConfig = ChaosConfig()) -> ChaosReport:
    """Run one full chaos scenario against a live in-process service."""
    report = ChaosReport()
    rng = random.Random(config.seed)
    cache_root = config.cache_dir or tempfile.mkdtemp(prefix="repro-chaos-cache-")
    owns_cache = config.cache_dir is None
    policy = RetryPolicy(
        max_attempts=config.max_retries,
        # A kill can charge a crash to every concurrently-running cell,
        # so the crash budget must exceed the kill budget for healthy
        # cells to be guaranteed to settle successfully.
        max_crashes=config.kills + 1,
        base_delay=0.05,
        max_delay=0.5,
    )
    service = SweepService(
        host="127.0.0.1", port=0, workers=config.workers,
        cache=ResultCache(cache_root), cell_deadline=config.cell_deadline,
        policy=policy, tick=0.02,
    )
    harness = _ServiceThread(service)
    client = ServiceClient(harness.host, harness.port, timeout=30.0)
    try:
        good = healthy_specs(config)
        slow = slow_specs(config)
        poison = poison_specs(config)
        specs = slow + poison + good  # doomed cells first: they start early
        report.cells_total = len(specs)

        job = client.submit_specs(specs)["job"]
        report.kills_delivered = _kill_workers(service, client, job, config, rng)
        status = client.wait(job, timeout=config.wait_timeout)

        cells = status["cell_details"]
        counts = status["counts"]
        report.record(
            "every cell settled",
            counts["queued"] == 0 and counts["running"] == 0,
            f"counts={counts}",
        )
        slow_cells = cells[: len(slow)]
        poison_cells_ = cells[len(slow): len(slow) + len(poison)]
        good_cells = cells[len(slow) + len(poison):]

        report.record(
            "healthy cells all done despite worker kills",
            all(c["status"] == "done" for c in good_cells),
            ", ".join(
                f"[{c['index']}] {c['status']}"
                + (f" ({c['error']['kind']})" if c["error"] else "")
                for c in good_cells
            ),
        )
        report.record(
            "poisoned cells settled failed after retry budget",
            all(
                c["status"] == "failed"
                and c["error"]["kind"] == "KeyError"
                # Dispatches can exceed the retry budget: pool recycles
                # re-submit a cell without consuming a (transient) retry.
                and c["attempts"] >= config.max_retries
                for c in poison_cells_
            ),
            ", ".join(
                f"[{c['index']}] {c['status']} "
                f"{(c['error'] or {}).get('kind')} x{c['attempts']}"
                for c in poison_cells_
            ),
        )
        report.record(
            "slow cells settled failed: deadline_exceeded",
            all(
                c["status"] == "failed"
                and c["error"]["kind"] == "deadline_exceeded"
                for c in slow_cells
            ),
            ", ".join(
                f"[{c['index']}] {c['status']} {(c['error'] or {}).get('kind')}"
                for c in slow_cells
            ),
        )

        health = client.healthz()
        report.counters = dict(health["counters"])
        fresh_successes = sum(
            1 for c in cells if c["status"] == "done" and c["source"] == "run"
        )
        report.record(
            "each unique cell simulated at most once successfully",
            report.counters["cells_simulated"] == fresh_successes,
            f"cells_simulated={report.counters['cells_simulated']} "
            f"fresh done cells={fresh_successes}",
        )
        report.record(
            "recovery counters visible in /metrics",
            report.counters["workers_recycled"] >= report.kills_delivered
            and "repro_workers_recycled_total" in client.metrics(),
            f"workers_recycled={report.counters['workers_recycled']} "
            f">= kills={report.kills_delivered}",
        )

        # The surviving sweep resubmitted: 100% served from the cache.
        resubmit = client.wait(
            client.submit_specs(good)["job"], timeout=config.wait_timeout
        )
        sources = [c["source"] for c in resubmit["cell_details"]]
        report.record(
            "immediate resubmission is 100% cache hits",
            resubmit["status"] == "done" and all(s == "cache" for s in sources),
            f"sources={sorted(set(sources))}",
        )

        # The pool is reusable after crashes and deadline recycles: a
        # brand-new sweep (cold keys) completes normally.
        fresh = [
            RunSpec(spec.workload, spec.protocol, spec.config, seed=spec.seed + 5000)
            for spec in good[: max(1, len(good) // 2)]
        ]
        after = client.wait(
            client.submit_specs(fresh)["job"], timeout=config.wait_timeout
        )
        report.record(
            "worker slots reusable after the storm (fresh sweep completes)",
            after["status"] == "done",
            f"status={after['status']}",
        )

        listed = client.jobs()["jobs"]
        report.record(
            "no job stuck in running",
            all(j["status"] in ("done", "failed") for j in listed),
            ", ".join(f"{j['job']}={j['status']}" for j in listed),
        )
        report.record(
            "service healthy after the storm",
            client.healthz()["status"] == "ok",
            f"status={client.healthz()['status']}",
        )
    finally:
        harness.close()
        if owns_cache:
            shutil.rmtree(cache_root, ignore_errors=True)
    return report

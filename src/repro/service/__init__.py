"""Simulation-as-a-service: a long-running asyncio sweep job server.

The service wraps the existing harness substrate —
:class:`~repro.harness.parallel.RunSpec` cells, the supervised worker
pool (kept alive for the server's lifetime), and the content-addressed
:class:`~repro.harness.parallel.ResultCache` — behind a minimal
stdlib-only HTTP/1.1 API:

* ``POST /jobs`` — submit a sweep job (a list of cell specs)
* ``GET /jobs`` — list submitted jobs
* ``GET /jobs/<id>`` — per-job progress: completed/running/queued counts
  and per-cell outcomes
* ``GET /healthz`` — liveness (uptime, worker-pool health)
* ``GET /metrics`` — Prometheus-style text metrics (queue depth,
  throughput, cache hit rate, worker liveness)

Identical cells are deduped *globally* by the inputs+code-hash cache key:
two users submitting the same cell share one simulation, whether it is
still in flight or already on disk.  A failing cell fails only its own
job entry; sibling cells complete and are cached (the failure-isolation
contract of :func:`repro.harness.parallel.run_specs_outcomes`).

The service is **self-healing**: the worker pool runs under a
:class:`~repro.harness.supervisor.PoolSupervisor` that rebuilds the pool
after worker crashes, retries transient cell failures with exponential
backoff (:class:`~repro.harness.supervisor.RetryPolicy`), enforces
per-cell execution deadlines, and re-dispatches innocent-bystander cells
lost to a crash.  The server bounds admission (HTTP 503 + ``Retry-After``
past ``max_queued``) and drains gracefully on SIGTERM/SIGINT.  The
:mod:`~repro.service.chaos` harness (``denovosync-bench chaos-service``)
proves the contract against a live server under worker murder, poisoned
cells, and deadline overruns.
"""

from repro.harness.supervisor import (
    CellResolution,
    CellTask,
    PoolSupervisor,
    RetryPolicy,
)
from repro.service.chaos import ChaosConfig, ChaosReport, run_service_chaos
from repro.service.client import DEFAULT_HOST, DEFAULT_PORT, ServiceClient, ServiceError
from repro.service.jobs import Job, JobCell, JobRegistry
from repro.service.metrics import ServiceMetrics
from repro.service.server import SweepService, run_server
from repro.service.specs import config_from_dict, spec_from_dict, spec_to_dict

__all__ = [
    "CellResolution",
    "CellTask",
    "ChaosConfig",
    "ChaosReport",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Job",
    "JobCell",
    "JobRegistry",
    "PoolSupervisor",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "SweepService",
    "config_from_dict",
    "run_server",
    "run_service_chaos",
    "spec_from_dict",
    "spec_to_dict",
]

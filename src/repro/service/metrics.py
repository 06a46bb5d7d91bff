"""Service metrics: counters plus derived gauges, rendered two ways.

``snapshot()`` returns the JSON form (used by ``/healthz`` and tests);
``render()`` produces Prometheus text-exposition format for ``/metrics``
— the structured pass/fail ops shape of the sync-state healthcheck
exemplar, consumable by curl or a scraper alike.
"""

from __future__ import annotations

import time
from collections.abc import Callable

#: counter name -> help string; the fixed vocabulary keeps /metrics stable.
COUNTERS = {
    "jobs_submitted": "Sweep jobs accepted over HTTP",
    "cells_submitted": "Cells across all accepted jobs",
    "cells_simulated": "Cells simulated to completion by this server's pool",
    "cells_failed": "Cells whose simulation raised",
    "cache_hits": "Cells served from the on-disk result cache",
    "dedupe_hits": "Cells attached to an identical in-flight simulation",
    "requests": "HTTP requests handled",
    "bad_requests": "HTTP requests rejected (4xx)",
    "rejected": "Job submissions rejected by admission control (HTTP 503)",
    "cells_retried": "Cell attempts retried after a transient failure",
    "workers_recycled": "Worker-pool rebuilds (crash recovery or deadline enforcement)",
    "cells_crashed": "Cells settled as worker_crash after repeated mid-execution worker deaths",
    "cells_deadline_exceeded": "Cells settled as failed after exceeding their execution deadline",
    "epoch_epochs": "Simulated cycles the engine clock advanced to, across cells",
    "epoch_events_batched": "Events fired by the engine across simulated cells",
    "epoch_spin_polls_elided": "Spin polls elided by spin fast-forward leases",
}


class ServiceMetrics:
    """Monotonic counters + uptime; gauges are supplied at render time."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self.started_at = clock()
        self.counts = dict.fromkeys(COUNTERS, 0)

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] += by

    @property
    def uptime(self) -> float:
        return self._clock() - self.started_at

    # -- derived gauges ------------------------------------------------------

    def cells_completed(self) -> int:
        """Cells resolved without a fresh simulation or with one: everything
        a client no longer waits on."""
        return (
            self.counts["cells_simulated"]
            + self.counts["cache_hits"]
            + self.counts["dedupe_hits"]
        )

    def cache_hit_rate(self) -> float:
        """Fraction of submitted cells that needed no new simulation
        (on-disk hit or in-flight dedupe)."""
        submitted = self.counts["cells_submitted"]
        if not submitted:
            return 0.0
        return (self.counts["cache_hits"] + self.counts["dedupe_hits"]) / submitted

    def cells_per_second(self) -> float:
        uptime = self.uptime
        return self.cells_completed() / uptime if uptime > 0 else 0.0

    def snapshot(
        self, *, queue_depth: int = 0, running: int = 0,
        workers: dict | None = None,
    ) -> dict:
        return {
            "uptime_seconds": round(self.uptime, 3),
            "counters": dict(self.counts),
            "queue_depth": queue_depth,
            "cells_running": running,
            "cells_completed": self.cells_completed(),
            "cache_hit_rate": round(self.cache_hit_rate(), 4),
            "cells_per_second": round(self.cells_per_second(), 4),
            "workers": workers or {},
        }

    def render(self, *, queue_depth: int = 0, running: int = 0, workers: dict | None = None) -> str:
        """Prometheus text-exposition format (one scrape = one call)."""
        lines = []

        def emit(name: str, kind: str, help_text: str, value) -> None:
            lines.append(f"# HELP repro_{name} {help_text}")
            lines.append(f"# TYPE repro_{name} {kind}")
            value = float(value)
            rendered = f"{value:.6f}".rstrip("0").rstrip(".") if value % 1 else str(int(value))
            lines.append(f"repro_{name} {rendered}")

        emit("uptime_seconds", "gauge", "Seconds since the server started", self.uptime)
        for name, help_text in COUNTERS.items():
            emit(f"{name}_total", "counter", help_text, self.counts[name])
        emit("queue_depth", "gauge", "Unique cells submitted and not yet completed", queue_depth)
        emit("cells_running", "gauge", "Cells currently executing in a worker", running)
        emit(
            "cells_completed_total",
            "counter",
            "Cells resolved (simulated, cache hit, or dedupe hit)",
            self.cells_completed(),
        )
        emit(
            "cache_hit_rate",
            "gauge",
            "Fraction of submitted cells that needed no new simulation",
            self.cache_hit_rate(),
        )
        emit(
            "cells_per_second",
            "gauge",
            "Completed cells per second of uptime",
            self.cells_per_second(),
        )
        workers = workers or {}
        emit("workers_configured", "gauge", "Worker processes configured",
         workers.get("configured", 0))
        emit("workers_alive", "gauge", "Worker processes currently alive",
         workers.get("alive", 0))
        emit("pool_broken", "gauge", "1 if the worker pool is broken",
         int(bool(workers.get("broken"))))
        return "\n".join(lines) + "\n"

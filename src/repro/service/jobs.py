"""Job and cell bookkeeping for the sweep service.

A *job* is one submission (an ordered list of cells); a *cell* is one
:class:`~repro.harness.parallel.RunSpec` plus its live progress state.
All mutation happens on the server's event loop, so no locking is needed;
status readers only ever see a consistent snapshot because handlers run
to completion between awaits.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.harness.parallel import RunSpec
from repro.harness.supervisor import CellTask
from repro.service.specs import describe_workload

#: Cell lifecycle: ``queued`` (submitted to the pool, not yet picked up,
#: or backing off between retry attempts) -> ``running`` (a worker
#: process is simulating it) -> ``done`` or ``failed``.  Cache and
#: dedupe hits are born ``done``/attached mid-state.
CELL_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobCell:
    """One cell of a job: spec, cache identity, and progress."""

    index: int
    spec: RunSpec
    key: str
    #: how the result is being obtained: ``run`` (fresh simulation this
    #: service owns), ``dedupe`` (shares another job's in-flight
    #: simulation), or ``cache`` (served from the on-disk result cache).
    source: str = "run"
    status: str = "queued"
    summary: dict | None = None
    error: dict | None = None
    #: execution attempts the supervised cell took (0 for cache hits).
    attempts: int = 0
    #: the shared supervised task while in flight (None once settled or
    #: when the cell was a cache hit).
    task: CellTask | None = None

    @property
    def effective_status(self) -> str:
        """``queued`` refines to ``running`` once a worker picks it up;
        a cell backing off between retries reads as ``queued``."""
        if self.status == "queued" and self.task is not None:
            if self.task.phase == "running":
                return "running"
        return self.status

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "workload": describe_workload(self.spec.workload),
            "protocol": self.spec.protocol,
            "cores": self.spec.config.num_cores,
            "seed": self.spec.seed,
            "key": self.key,
            "source": self.source,
            "status": self.effective_status,
            "summary": self.summary,
            "error": self.error,
            "attempts": self.attempts if self.task is None else self.task.attempts,
        }


@dataclass
class Job:
    """One submission: an id, its cells, and derived progress counts."""

    id: str
    cells: list[JobCell] = field(default_factory=list)
    created_at: float = field(default_factory=time.time)

    def counts(self) -> dict[str, int]:
        counts = dict.fromkeys(CELL_STATES, 0)
        for cell in self.cells:
            counts[cell.effective_status] += 1
        return counts

    @property
    def status(self) -> str:
        counts = self.counts()
        if counts["queued"] or counts["running"]:
            return "running"
        return "failed" if counts["failed"] else "done"

    @property
    def settled(self) -> bool:
        return self.status in ("done", "failed")

    def summary_dict(self) -> dict:
        return {
            "job": self.id,
            "status": self.status,
            "created_at": self.created_at,
            "cells": len(self.cells),
            "counts": self.counts(),
        }

    def as_dict(self) -> dict:
        payload = self.summary_dict()
        payload["cell_details"] = [cell.as_dict() for cell in self.cells]
        return payload


class JobRegistry:
    """In-memory registry of every job this server instance has accepted."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)

    def create(self) -> Job:
        job = Job(id=f"j{next(self._ids):04d}")
        self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def all(self) -> list[Job]:
        return list(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

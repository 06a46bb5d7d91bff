"""Self-healing worker pool with global in-flight dedupe for the service.

CLI sweeps (:func:`repro.harness.parallel.run_tasks`) start a
supervised pool per sweep; the service keeps one alive for its whole
lifetime (warm workers, no per-job fork cost) and maintains an
*in-flight index* from cache key to the cell's supervised task.
Submissions check, in order:

1. the on-disk :class:`~repro.harness.parallel.ResultCache` (a completed
   identical cell, from any past job or process) — ``cache``;
2. the in-flight index (an identical cell currently supervised for some
   other job) — ``dedupe``: the new job attaches to the same
   :class:`~repro.harness.supervisor.CellTask`, whose outcome future
   resolves only on the *terminal* outcome, after all retries;
3. otherwise the cell is submitted to the supervised pool — ``run``.

Together with the content-addressed key (inputs + code hash) this gives
the service's core guarantee: **each unique cell simulates at most once
successfully**, no matter how many overlapping jobs are submitted
concurrently and no matter how many times workers die under it — a
retry re-simulates only cells that provably produced no result.

The pool itself is owned by a :class:`~repro.harness.supervisor.
PoolSupervisor` (the same one CLI sweeps use), stepped by the server's
tick task: worker crashes rebuild the pool and re-submit lost cells,
raising cells retry with exponential backoff, hung cells time out
against a wall-clock deadline, and shutdown harvests already-completed
results into the cache instead of dropping them.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.harness.parallel import ResultCache, RunSpec, resolve_jobs
from repro.harness.supervisor import (
    _USE_DEFAULT,
    CellResolution,
    PoolSupervisor,
    RetryPolicy,
)


class SweepExecutor:
    """Owns the supervised worker pool, the result cache, and the
    in-flight index.  All methods must run on the server's event loop
    (the thread that steps the supervisor)."""

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: ResultCache | None = None,
        max_workers_cap: int | None = None,
        policy: RetryPolicy | None = None,
        default_deadline: float | None = None,
        tick: float = 0.05,
        worker_fn=None,
        on_counter: Callable[..., None] | None = None,
    ) -> None:
        self.workers = resolve_jobs(workers, cap=max_workers_cap)
        self.cache = cache
        self._on_counter = on_counter
        supervisor_kwargs = dict(
            workers=self.workers,
            policy=policy,
            tick=tick,
            default_deadline=default_deadline,
            on_settle=self._on_settle,
            on_counter=on_counter,
        )
        if worker_fn is not None:
            supervisor_kwargs["worker_fn"] = worker_fn
        self.supervisor = PoolSupervisor(**supervisor_kwargs)

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Harvest completed work (persisting it to the cache), settle the
        rest with ``shutdown`` errors, and kill the pool."""
        self.supervisor.shutdown()

    def harvest(self) -> int:
        """Settle (and cache) cells whose workers already finished."""
        return self.supervisor.harvest()

    # -- submission ----------------------------------------------------------

    def lookup(self, spec: RunSpec, key: str, *, deadline=_USE_DEFAULT):
        """Resolve one cell; returns ``(source, payload)`` where source is
        ``"cache"`` (payload: the cached :class:`RunResult`), ``"dedupe"``
        (payload: the sibling's in-flight :class:`CellTask`) or ``"run"``
        (payload: a freshly supervised :class:`CellTask`).

        ``deadline`` is the cell's wall-clock execution budget in seconds
        (None: unlimited; default: the executor-wide default).  A dedupe
        hit keeps the original submission's deadline."""
        if self.supervisor._closed:
            raise RuntimeError("executor is shut down")
        if self.cache is not None:
            cached = self.cache.load(spec)
            if cached is not None:
                return "cache", cached
        task = self.supervisor.get(key)
        if task is not None:
            return "dedupe", task
        return "run", self.supervisor.submit(spec, key, deadline=deadline)

    def _on_settle(self, resolution: CellResolution) -> None:
        """Supervisor settle hook, invoked *before* the outcome future
        resolves and before the in-flight key retires: persist a success
        so any later submission sees the cache entry, never a gap."""
        if resolution.ok:
            if self.cache is not None:
                self.cache.store(resolution.spec, resolution.result)
            if self._on_counter is not None:
                self._on_counter("cells_simulated", 1)
                epoch = resolution.result.meta.get("epoch")
                if epoch:
                    self._on_counter("epoch_epochs", epoch["epochs"])
                    self._on_counter(
                        "epoch_events_batched", epoch["events_batched"]
                    )
                    self._on_counter(
                        "epoch_spin_polls_elided", epoch["spin_polls_elided"]
                    )

    # -- introspection -------------------------------------------------------

    def queue_depth(self) -> int:
        """Unique cells supervised and not yet settled."""
        return self.supervisor.pending_count()

    def running_count(self) -> int:
        return self.supervisor.running_count()

    def worker_pids(self) -> list[int]:
        return self.supervisor.worker_pids()

    def worker_health(self) -> dict:
        return self.supervisor.worker_health()

    @property
    def healthy(self) -> bool:
        health = self.worker_health()
        return not health["broken"] and not health["shutdown"]

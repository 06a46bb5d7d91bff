"""Worker-pool supervision: retries, crash attribution, deadlines, recycle.

The one worker pool of the project.  A bare
:class:`~concurrent.futures.ProcessPoolExecutor` is *not* self-healing:
one worker death (OOM kill, segfault, SIGKILL) breaks the pool
permanently and fails every in-flight and future submission, and a hung
cell occupies a worker forever.  :class:`PoolSupervisor` wraps the pool
with a supervision state machine that makes every cell **settle
eventually**:

* **Crash recovery.**  When the pool breaks, the supervisor rebuilds it
  and re-submits the in-flight cells that were lost.  Attribution is by
  an on-disk *start marker* the worker touches before simulating: a cell
  whose marker exists when the pool broke **provably crashed
  mid-execution** and is charged one crash; after
  :attr:`RetryPolicy.max_crashes` charges it settles with a structured
  ``worker_crash`` error (a cell that reliably kills its worker must not
  crash-loop the pool forever).  Cells never observed running are
  innocent bystanders and are re-submitted without penalty.
* **Retry with backoff.**  A cell whose execution raises is retried up
  to :attr:`RetryPolicy.max_attempts` times with exponential backoff
  plus jitter (the same shape as the simulated hardware's own
  ``BackoffConfig``: a growing increment, bounded above) before settling
  with the final error.
* **Deadlines.**  A cell may carry a wall-clock execution budget,
  counted from the moment its start marker appears.  A cell that
  overruns settles as ``deadline_exceeded`` and the pool is *recycled*
  (workers killed and respawned) to free the hung worker — pool futures
  cannot be cancelled once running.
* **One outcome future.**  Each cell exposes a single
  :class:`concurrent.futures.Future` (:attr:`CellTask.outcome`) that
  resolves only on the *terminal* outcome, after all retries — so any
  number of jobs can attach to the same in-flight cell and all of them
  observe the retried result, never an intermediate failure.

The supervisor is synchronous and single-threaded: *all* state
transitions happen inside :meth:`PoolSupervisor.step` (or in
``submit``/``shutdown``), called from one thread.  Nothing here locks,
and every transition is observable and unit-testable by calling
``step()`` by hand.  Two drivers call it:

* :func:`repro.harness.parallel.run_tasks` (CLI sweeps, ``jobs > 1``)
  calls :meth:`PoolSupervisor.wait`, which blocks on pool completions
  between passes;
* the sweep server runs a tick task on its event loop that calls
  ``step()`` every ``tick`` seconds and awaits outcomes through
  :func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import itertools
import random
import shutil
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as wait_for_any
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable

from repro.harness.parallel import CellError, RunSpec, execute_spec
from repro.stats.collector import RunResult

#: Sentinel distinguishing "no deadline" (None) from "use the default".
_USE_DEFAULT = object()


def call_with_marker(fn: Callable, arg, marker_path: str):
    """Worker-process entry point: stamp the start marker, then run
    ``fn(arg)``.

    The marker is the supervisor's crash-attribution evidence — it is
    touched *before* any work, so a worker that dies with the marker
    present provably died mid-execution of this cell.
    """
    try:
        Path(marker_path).touch()
    except OSError:
        pass  # spool dir gone (shutdown race); attribution degrades gracefully
    return fn(arg)


def execute_cell(spec: RunSpec, marker_path: str) -> RunResult:
    """The server's worker entry point: simulate one :class:`RunSpec`."""
    return call_with_marker(execute_spec, spec, marker_path)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff parameters for one supervised pool.

    ``delay`` follows the simulator's own hardware backoff shape
    (:class:`repro.config.BackoffConfig`): exponential growth from
    ``base_delay`` by ``multiplier`` per attempt, bounded by
    ``max_delay``, plus up to ``jitter`` fraction of random spread so
    retrying cells do not stampede a freshly rebuilt pool.
    """

    #: Total execution attempts for a cell whose run *raises* (the first
    #: attempt counts; ``1`` disables retries).
    max_attempts: int = 3
    #: Provable mid-execution worker deaths before a cell settles as
    #: ``worker_crash`` instead of being re-submitted.
    max_crashes: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.max_crashes < 1:
            raise ValueError(f"max_crashes must be >= 1, got {self.max_crashes!r}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("backoff delays and jitter must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1.0, got {self.multiplier!r}")

    def delay(self, failures: int, rng: random.Random) -> float:
        """Backoff before re-dispatching after the ``failures``-th failure."""
        base = min(self.max_delay, self.base_delay * self.multiplier ** max(0, failures - 1))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class CellResolution:
    """The terminal outcome of one supervised cell.

    Exactly one of ``result`` / ``error`` is set.  ``error`` is a plain
    JSON-ready dict (``kind``, ``message``, ``traceback``, ``attempts``)
    so the server can ship it verbatim in job payloads; kinds beyond
    exception class names: ``worker_crash``, ``deadline_exceeded``,
    ``shutdown``.
    """

    spec: RunSpec
    key: str
    attempts: int
    result: RunResult | None = None
    error: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CellTask:
    """One supervised cell: identity, live attempt state, and the outcome."""

    spec: RunSpec
    key: str
    #: wall-clock execution budget in seconds (None: unlimited), counted
    #: from the moment the start marker is first observed.
    deadline: float | None
    #: resolves to a :class:`CellResolution` on the terminal outcome only.
    outcome: Future
    attempts: int = 0
    #: execution attempts that raised (drives the retry budget).
    failures: int = 0
    #: provable mid-execution worker deaths (drives the crash budget).
    crashes: int = 0
    pool_future: Future | None = None
    marker: Path | None = None
    #: monotonic time the current attempt's marker was first observed.
    started_at: float | None = None
    #: monotonic time at which a backoff wait ends and the cell re-dispatches.
    retry_at: float | None = None
    last_error: CellError | None = None

    @property
    def phase(self) -> str:
        """``queued`` | ``running`` | ``backoff`` | ``settled``."""
        if self.outcome.done():
            return "settled"
        if self.pool_future is None:
            return "backoff"
        if self.started_at is not None or self.pool_future.running():
            return "running"
        return "queued"


class PoolSupervisor:
    """Owns the worker pool and every in-flight :class:`CellTask`.

    ``on_settle(resolution)`` runs synchronously *before* the task's
    outcome future resolves and before the task leaves the in-flight
    index — the service uses it to persist successful results, so a
    submission processed after a cell settles always finds the cache
    entry, never a gap (the at-most-once-successful-simulation
    invariant).  ``on_counter(name, by)`` feeds the service metrics.
    ``tick`` is the server's supervision period and the longest
    :meth:`wait` blocks between passes.
    """

    def __init__(
        self,
        *,
        workers: int,
        policy: RetryPolicy | None = None,
        tick: float = 0.05,
        default_deadline: float | None = None,
        worker_fn: Callable[[object, str], object] = execute_cell,
        on_settle: Callable[[CellResolution], None] | None = None,
        on_counter: Callable[..., None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick!r}")
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.tick = tick
        self.default_deadline = default_deadline
        self.worker_fn = worker_fn
        self._on_settle = on_settle
        self._on_counter = on_counter
        self._clock = clock
        self._rng = random.Random(0x5EED)  # retry jitter, reproducible
        self._spool = Path(tempfile.mkdtemp(prefix="repro-sweep-spool-"))
        self._marker_ids = itertools.count(1)
        self._tasks: dict[str, CellTask] = {}
        self._pool: ProcessPoolExecutor | None = self._new_pool()
        self._closed = False
        #: lifetime counters, mirrored into /metrics via ``on_counter``.
        self.recycles = 0
        self.retries = 0
        self.crash_settles = 0
        self.deadline_settles = 0

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Harvest already-completed work, settle the rest, kill the pool.

        Results that finished in a worker but were not yet observed are
        settled (and thus persisted by ``on_settle``) **before** the pool
        goes down — completed simulations are never discarded.  Cells
        still running or queued settle with a ``shutdown`` error.
        """
        if self._closed:
            return
        self._closed = True
        self.harvest()
        for task in list(self._tasks.values()):
            self._settle(
                task,
                error=self._structured_error(
                    "shutdown",
                    "supervisor shut down before the cell could finish",
                    task,
                ),
            )
        if self._pool is not None:
            self._kill_pool(self._pool)
            self._pool = None
        shutil.rmtree(self._spool, ignore_errors=True)

    def harvest(self) -> int:
        """Settle every task whose pool future already holds a real outcome
        (without scheduling retries or recycles); returns how many settled.
        Used on shutdown and by drain so completed work is never dropped."""
        settled = 0
        for task in list(self._tasks.values()):
            future = task.pool_future
            if future is None or not future.done():
                continue
            exc = future.exception()
            if exc is None:
                self._settle(task, result=future.result())
                settled += 1
            elif not isinstance(exc, BrokenExecutor) and self._closed:
                # Final pass: no retries left to schedule, record the error.
                task.failures += 1
                task.last_error = CellError.from_exception(exc)
                self._settle(task, error=self._transient_error(task))
                settled += 1
        return settled

    # -- submission ----------------------------------------------------------

    def get(self, key: str) -> CellTask | None:
        return self._tasks.get(key)

    def submit(self, spec, key: str, *, deadline=_USE_DEFAULT) -> CellTask:
        """Register one cell and dispatch its first attempt.  Must run on
        the thread that drives ``step()``."""
        if self._closed:
            raise RuntimeError("supervisor is shut down")
        if deadline is _USE_DEFAULT:
            deadline = self.default_deadline
        outcome: Future = Future()
        # Running from birth: an awaiter that gives up (a cancelled
        # asyncio.wrap_future) must not cancel an outcome other jobs share.
        outcome.set_running_or_notify_cancel()
        task = CellTask(spec=spec, key=key, deadline=deadline, outcome=outcome)
        self._tasks[key] = task
        self._dispatch(task)
        return task

    def _dispatch(self, task: CellTask) -> None:
        task.attempts += 1
        task.retry_at = None
        task.started_at = None
        self._discard_marker(task)
        task.marker = self._spool / f"{next(self._marker_ids):08d}.started"
        try:
            task.pool_future = self._pool.submit(
                self.worker_fn, task.spec, str(task.marker)
            )
        except BrokenExecutor:
            # The pool broke between ticks; rebuild it (which re-submits
            # every *other* in-flight cell) and dispatch into the fresh one.
            self._recycle(intentional=False)
            task.pool_future = self._pool.submit(
                self.worker_fn, task.spec, str(task.marker)
            )

    # -- the supervision pass ------------------------------------------------

    def wait(self, tasks: Iterable[CellTask]) -> list[CellResolution]:
        """Synchronous driver: step until every task settles, blocking on
        pool completions (at most one ``tick``, so markers, deadlines and
        backoffs are still observed) between passes.  Returns the
        resolutions in ``tasks`` order."""
        tasks = list(tasks)
        while not all(task.outcome.done() for task in tasks):
            wait_for_any(
                [task.pool_future for task in tasks if task.pool_future is not None],
                timeout=self.tick,
                return_when=FIRST_COMPLETED,
            )
            self.step()
        return [task.outcome.result() for task in tasks]

    def step(self) -> None:
        """One supervision pass: crash recovery, completions, deadlines,
        and due retries.  Idempotent; every state transition lives here."""
        if self._closed:
            return
        if self._broken():
            self._recycle(intentional=False)
        now = self._clock()
        for task in list(self._tasks.values()):
            if task.outcome.done():
                continue
            future = task.pool_future
            if future is None:  # backing off between attempts
                if task.retry_at is not None and now >= task.retry_at:
                    self._dispatch(task)
                continue
            if future.done():
                self._observe_completion(task, future)
                continue
            if task.started_at is None and task.marker is not None:
                if task.marker.exists():
                    task.started_at = now
            if (
                task.deadline is not None
                and task.started_at is not None
                and now - task.started_at >= task.deadline
            ):
                self._deadline_exceeded(task)

    def _observe_completion(self, task: CellTask, future: Future) -> None:
        exc = future.exception()
        if exc is None:
            self._settle(task, result=future.result())
            return
        if isinstance(exc, BrokenExecutor):
            # A worker died between the broken-pool check and here; the
            # recycle pass on re-entry handles attribution for everyone.
            self._recycle(intentional=False)
            return
        # A real execution failure: retry with backoff, or settle.
        task.failures += 1
        task.last_error = CellError.from_exception(exc)
        if task.failures >= self.policy.max_attempts:
            self._settle(task, error=self._transient_error(task))
            return
        self.retries += 1
        self._count("cells_retried")
        task.pool_future = None
        task.retry_at = self._clock() + self.policy.delay(task.failures, self._rng)

    def _deadline_exceeded(self, task: CellTask) -> None:
        self.deadline_settles += 1
        self._count("cells_deadline_exceeded")
        self._settle(
            task,
            error=self._structured_error(
                "deadline_exceeded",
                f"cell exceeded its {task.deadline:g}s execution deadline "
                f"(attempt {task.attempts})",
                task,
            ),
        )
        # The worker running this cell cannot be preempted any other way:
        # recycle the pool to free it.  Innocent in-flight cells are
        # re-submitted without a crash charge.
        self._recycle(intentional=True)

    def _recycle(self, *, intentional: bool) -> None:
        """Kill and rebuild the pool, then re-submit lost in-flight cells.

        ``intentional`` recycles (deadline enforcement, health recovery)
        charge no one; an unintentional break charges a crash to every
        cell whose start marker proves it was mid-execution."""
        self.recycles += 1
        self._count("workers_recycled")
        survivors: list[CellTask] = []
        for task in list(self._tasks.values()):
            if task.outcome.done():
                continue
            future = task.pool_future
            if future is None:
                continue  # backing off; never touched the dead pool
            if future.done() and future.exception() is None:
                # Completed in a worker before the break: harvest, don't re-run.
                self._settle(task, result=future.result())
                continue
            if future.done() and not isinstance(future.exception(), BrokenExecutor):
                # A real failure that happened to land with the break.
                self._observe_completion(task, future)
                continue
            started = task.started_at is not None or (
                task.marker is not None and task.marker.exists()
            )
            if started and not intentional:
                task.crashes += 1
                if task.crashes >= self.policy.max_crashes:
                    self.crash_settles += 1
                    self._count("cells_crashed")
                    self._settle(
                        task,
                        error=self._structured_error(
                            "worker_crash",
                            f"worker died mid-execution {task.crashes} time(s) "
                            f"(over {task.attempts} attempt(s)); not re-submitting",
                            task,
                        ),
                    )
                    continue
            survivors.append(task)
        old_pool, self._pool = self._pool, self._new_pool()
        if old_pool is not None:
            self._kill_pool(old_pool)
        for task in survivors:
            self._dispatch(task)

    # -- settling ------------------------------------------------------------

    def _settle(
        self,
        task: CellTask,
        *,
        result: RunResult | None = None,
        error: dict | None = None,
    ) -> None:
        if task.outcome.done():
            return
        self._discard_marker(task)
        task.pool_future = None
        self._tasks.pop(task.key, None)
        resolution = CellResolution(
            spec=task.spec, key=task.key, attempts=task.attempts,
            result=result, error=error,
        )
        if self._on_settle is not None:
            try:
                self._on_settle(resolution)
            except Exception:  # pragma: no cover - the hook must not kill supervision
                pass
        task.outcome.set_result(resolution)

    def _transient_error(self, task: CellTask) -> dict:
        error = task.last_error.as_dict() if task.last_error else {
            "kind": "unknown", "message": "cell failed", "traceback": ""
        }
        error["attempts"] = task.attempts
        return error

    def _structured_error(self, kind: str, message: str, task: CellTask) -> dict:
        return {
            "kind": kind,
            "message": message,
            "traceback": "",
            "attempts": task.attempts,
        }

    # -- pool plumbing -------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def _broken(self) -> bool:
        return bool(getattr(self._pool, "_broken", False))

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even when its workers are hung: SIGKILL every
        worker process, then release the executor's bookkeeping."""
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                if proc.is_alive():
                    proc.kill()
            except Exception:  # pragma: no cover - already-reaped process
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter-internal drift
            pass

    def _discard_marker(self, task: CellTask) -> None:
        if task.marker is not None:
            try:
                task.marker.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - spool dir already gone
                pass
            task.marker = None

    def _count(self, name: str, by: int = 1) -> None:
        if self._on_counter is not None:
            self._on_counter(name, by)

    # -- introspection -------------------------------------------------------

    def pending_count(self) -> int:
        """Unique cells supervised and not yet settled."""
        return len(self._tasks)

    def running_count(self) -> int:
        return sum(1 for task in self._tasks.values() if task.phase == "running")

    def worker_pids(self) -> list[int]:
        """Live worker-process pids (chaos harness and tests)."""
        processes = getattr(self._pool, "_processes", None) or {}
        pids = []
        for proc in list(processes.values()):
            try:
                if proc.is_alive() and proc.pid is not None:
                    pids.append(proc.pid)
            except Exception:  # pragma: no cover
                pass
        return pids

    def worker_health(self) -> dict:
        """Best-effort worker liveness: configured size, live processes,
        whether the pool has broken, and lifetime recovery counts."""
        pool = self._pool
        if pool is None or self._closed:
            return {
                "configured": self.workers, "alive": 0, "broken": False,
                "shutdown": True, "recycles": self.recycles,
            }
        processes = getattr(pool, "_processes", None) or {}
        try:
            alive = sum(1 for proc in processes.values() if proc.is_alive())
        except Exception:  # pragma: no cover - interpreter-internal drift
            alive = len(processes)
        return {
            "configured": self.workers,
            "alive": alive,
            "broken": self._broken(),
            "shutdown": False,
            "recycles": self.recycles,
        }

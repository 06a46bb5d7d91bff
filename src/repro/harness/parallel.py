"""Parallel, deterministic sweep execution with on-disk result caching.

Every cell of a figure sweep — one ``(workload, protocol, config, seed)``
simulation — is hermetic: :func:`repro.harness.runner.run_workload` builds
its own :class:`~repro.sim.engine.Simulator`, protocol and memory state, so
independent cells can run in separate worker processes with no shared
state.  :func:`run_tasks` fans a sweep's cells out to worker processes
under a :class:`~repro.harness.supervisor.PoolSupervisor` (a killed
worker costs one re-submission, not the sweep) and collects results **in
submission order**, which makes the parallel sweep's output byte-identical
to the serial path (``jobs=1`` runs the very same code in-process).

Cells are described by :class:`RunSpec`, a picklable value object: the
workload is carried as a plain-tuple *descriptor* (rebuilt by
:func:`materialize_workload` inside the worker) rather than a live
``Workload`` object, because workload instances may close over generators
that do not pickle.

:class:`ResultCache` adds an on-disk cache keyed by a SHA-256 of the
workload descriptor, protocol name, every :class:`SystemConfig` field, the
seed, and a hash of the ``repro`` package's source files (the *code
version*).  Re-running a figure therefore only simulates cells whose
inputs or simulator code changed; any edit under ``src/repro`` invalidates
the whole cache automatically.  Entries are stored as one pickle file per
key under ``<root>/<key[:2]>/<key>.pkl`` and written atomically.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from collections.abc import Iterable

from repro.config import SystemConfig
from repro.harness.runner import DEFAULT_MAX_EVENTS, run_workload
from repro.stats.collector import RunResult
from repro.workloads.base import KernelSpec, Workload

#: Default cache location (relative to the working directory) used by the
#: CLI; ``REPRO_CACHE_DIR`` overrides it.
DEFAULT_CACHE_DIR = os.path.join("results", ".runcache")


# -- workload descriptors -----------------------------------------------------
#
# A descriptor is a nested tuple of primitives (fully picklable and
# JSON-serializable after tuple->list coercion) that names a workload and
# every parameter needed to rebuild it bit-identically in a worker.


def kernel_cell(
    family: str,
    name: str,
    spec: KernelSpec | None = None,
    padded: bool = True,
    **kernel_kwargs,
) -> tuple:
    """Descriptor for one synchronization kernel (Figures 3-6 families)."""
    spec = spec or KernelSpec()
    return (
        "kernel",
        family,
        name,
        (spec.iterations, spec.scale, spec.unbalanced),
        tuple(sorted(kernel_kwargs.items())),
        bool(padded),
    )


def app_cell(name: str, scale: float = 1.0) -> tuple:
    """Descriptor for one Figure 7 application model."""
    return ("app", name, float(scale))


def app_selfinv_cell(name: str, scale: float, flush_all: bool) -> tuple:
    """Descriptor for the section 3 self-invalidation ablation variants."""
    return ("app_selfinv", name, float(scale), bool(flush_all))


def materialize_workload(descriptor: tuple) -> Workload:
    """Rebuild the workload a descriptor names (runs inside the worker)."""
    kind = descriptor[0]
    if kind == "kernel":
        _, family, name, spec_fields, kwargs, padded = descriptor
        from repro.workloads.registry import make_kernel

        iterations, scale, unbalanced = spec_fields
        workload = make_kernel(
            family,
            name,
            spec=KernelSpec(iterations=iterations, scale=scale, unbalanced=unbalanced),
            **dict(kwargs),
        )
        workload.padded = padded
        return workload
    if kind == "app":
        from repro.workloads.apps import make_app

        return make_app(descriptor[1], scale=descriptor[2])
    if kind == "app_selfinv":
        from dataclasses import replace

        from repro.workloads.apps import APP_PROFILES, AppWorkload

        _, name, scale, flush_all = descriptor
        profile = replace(APP_PROFILES[name], flush_all_selfinv=flush_all)
        return AppWorkload(profile, scale=scale)
    raise ValueError(f"unknown workload descriptor kind {kind!r}")


# -- run specifications -------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One picklable sweep cell: (workload descriptor, protocol, config, seed)."""

    workload: tuple
    protocol: str
    config: SystemConfig
    seed: int = 0
    max_events: int | None = DEFAULT_MAX_EVENTS

    def cache_token(self) -> dict:
        """Everything that determines this cell's result, JSON-serializable."""
        return {
            "format": 1,
            "workload": self.workload,
            "protocol": self.protocol,
            "config": asdict(self.config),
            "seed": self.seed,
            "max_events": self.max_events,
        }


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one cell to completion (the worker-process entry point)."""
    workload = materialize_workload(spec.workload)
    result = run_workload(
        workload, spec.protocol, spec.config, seed=spec.seed, max_events=spec.max_events
    )
    return result.portable_copy()


# -- code-version fingerprint -------------------------------------------------

#: (source fingerprint, digest) of the last :func:`code_version` call.
_code_version_memo: tuple[tuple, str] | None = None


def _source_root() -> Path:
    """Directory whose ``*.py`` tree defines the code version (the
    installed ``repro`` package); a seam for tests."""
    import repro

    return Path(repro.__file__).resolve().parent


def _source_fingerprint(root: Path) -> tuple:
    """Cheap change detector: (relative path, mtime_ns, size) per source
    file.  Re-stating the tree costs microseconds, so a long-lived process
    (the job server) can check it on every cache-key computation; the full
    content rehash only happens when this tuple changes."""
    entries = []
    for path in sorted(root.rglob("*.py")):
        try:
            stat = path.stat()
        except OSError:
            continue  # deleted mid-scan; the next fingerprint differs anyway
        entries.append((str(path.relative_to(root)), stat.st_mtime_ns, stat.st_size))
    return tuple(entries)


def _hash_source_tree(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def code_version() -> str:
    """SHA-256 over every ``repro`` source file.

    Part of every cache key: editing anything under ``src/repro``
    invalidates all previously cached results.  The digest is memoized
    against an mtime/size fingerprint of the source tree rather than per
    process, so a persistent server picks up source edits immediately
    instead of serving stale cache keys for its whole lifetime.
    """
    global _code_version_memo
    root = _source_root()
    fingerprint = _source_fingerprint(root)
    if _code_version_memo is None or _code_version_memo[0] != fingerprint:
        _code_version_memo = (fingerprint, _hash_source_tree(root))
    return _code_version_memo[1]


def cache_key_for(spec: RunSpec) -> str:
    """The content-addressed cache key of one cell: SHA-256 over the
    spec's :meth:`~RunSpec.cache_token` plus the current code version.
    Module-level so the job server can dedupe in-flight cells without a
    cache instance."""
    token = spec.cache_token()
    token["code_version"] = code_version()
    blob = json.dumps(token, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the on-disk result cache -------------------------------------------------


class ResultCache:
    """Content-addressed store of :class:`RunResult` pickles.

    ``hits`` / ``misses`` / ``stores`` count this instance's traffic (tests
    read them; the CLI does not report them).  A corrupt or unreadable entry
    is treated as a miss, and a failed write is skipped silently: the cache
    is best-effort and must never fail a sweep.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key_for(self, spec: RunSpec) -> str:
        return cache_key_for(spec)

    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, spec: RunSpec) -> RunResult | None:
        path = self._path_for(self.key_for(spec))
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except Exception:
            # Unpickling damaged bytes can raise almost anything
            # (UnicodeDecodeError, ValueError, OverflowError, MemoryError,
            # ...); every one of them means "miss", never "fail the sweep".
            self.misses += 1
            return None
        if not isinstance(result, RunResult):
            self.misses += 1
            return None
        self.hits += 1
        return result

    #: Everything a failed write may raise: filesystem errors, plus what
    #: ``pickle.dump`` raises for unpicklable payloads (``PicklingError``,
    #: but also bare ``TypeError``/``AttributeError``/``ValueError`` from
    #: ``__reduce__`` of builtin types, and ``RecursionError`` on cyclic
    #: monsters).  All of them mean "skip the store", never "fail the sweep".
    _STORE_ERRORS = (
        OSError,
        pickle.PickleError,
        TypeError,
        AttributeError,
        ValueError,
        RecursionError,
    )

    def store(self, spec: RunSpec, result: RunResult) -> None:
        """Best-effort: an unwritable cache or an unpicklable result must
        never fail a sweep whose simulations already completed."""
        path = self._path_for(self.key_for(spec))
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: a concurrent reader sees the old entry or the
            # new one, never a torn pickle.
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(
                        result.portable_copy(), fh, protocol=pickle.HIGHEST_PROTOCOL
                    )
                os.replace(tmp_name, path)
                tmp_name = None
            finally:
                # Whatever went wrong (including errors _STORE_ERRORS does
                # not cover), never leak the mkstemp temp file.
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
        except self._STORE_ERRORS:
            return
        self.stores += 1


# -- the sweep executor -------------------------------------------------------


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0/negative mean "all host cores"
    (1 when ``os.cpu_count()`` cannot tell).  The result is always >= 1."""
    if jobs is None or jobs < 1:
        return os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class CellError:
    """Structured record of one failed sweep cell.

    Picklable and JSON-friendly (``exception`` excepted): the job server
    ships these in ``GET /jobs/<id>`` payloads, and :func:`run_specs` uses
    ``exception`` to re-raise the original error for serial callers.
    """

    kind: str
    message: str
    traceback: str
    exception: BaseException | None = None

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellError":
        import traceback as traceback_mod

        return cls(
            kind=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
            ),
            exception=exc,
        )

    def as_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "traceback": self.traceback}


@dataclass
class CellOutcome:
    """Result-or-error slot for one cell of a sweep.

    Exactly one of ``result`` / ``error`` is set.  ``source`` records how
    the result was obtained: ``"cache"`` (served from the on-disk cache)
    or ``"run"`` (freshly simulated).
    """

    spec: RunSpec
    result: RunResult | None = None
    error: CellError | None = None
    source: str = "run"

    @property
    def ok(self) -> bool:
        return self.error is None


def run_specs_outcomes(
    specs: Iterable[RunSpec],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[CellOutcome]:
    """Run every spec with per-cell failure isolation.

    Like :func:`run_specs` but never raises for a failing cell: each slot
    of the returned list is a :class:`CellOutcome` carrying either the
    cell's :class:`RunResult` or a structured :class:`CellError`.  Every
    completed cell is written back to ``cache`` even when siblings fail —
    a poisoned cell costs only its own slot, not the sweep.
    """
    specs = list(specs)
    outcomes: list[CellOutcome | None] = [None] * len(specs)
    pending: list[int] = []
    for index, spec in enumerate(specs):
        cached = cache.load(spec) if cache is not None else None
        if cached is not None:
            outcomes[index] = CellOutcome(spec, result=cached, source="cache")
        else:
            pending.append(index)

    slots = run_tasks(
        execute_spec, [specs[i] for i in pending], jobs=jobs, return_exceptions=True
    )
    for index, slot in zip(pending, slots):
        if isinstance(slot, Exception):
            outcomes[index] = CellOutcome(specs[index], error=CellError.from_exception(slot))
            continue
        outcomes[index] = CellOutcome(specs[index], result=slot)
        if cache is not None:
            cache.store(specs[index], slot)
    return outcomes  # type: ignore[return-value]


def run_specs(
    specs: Iterable[RunSpec],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[RunResult]:
    """Run every spec; return results in spec order.

    ``jobs=1`` executes in-process (the serial reference path); ``jobs>1``
    fans uncached cells out to the supervised worker pool.  Results are
    collected in submission order regardless of completion order, and each
    cell is hermetic, so the returned list is identical for any ``jobs``
    value.
    Freshly simulated results are written back to ``cache`` when given.

    A raising cell still fails the sweep (the first cell error is
    re-raised, in spec order), but only after every other cell has run to
    completion and every completed result has been stored to ``cache`` —
    re-running the sweep after fixing the poisoned cell re-simulates
    nothing else.  Use :func:`run_specs_outcomes` to capture per-cell
    errors structurally instead of raising.
    """
    outcomes = run_specs_outcomes(specs, jobs=jobs, cache=cache)
    for outcome in outcomes:
        if outcome.error is not None:
            exc = outcome.error.exception
            if exc is None:  # pragma: no cover - exception always captured
                raise RuntimeError(
                    f"cell {outcome.spec} failed: {outcome.error.message}"
                )
            completed = sum(1 for o in outcomes if o.ok)
            if hasattr(exc, "add_note"):
                exc.add_note(
                    f"sweep cell {outcome.spec.workload!r} under "
                    f"{outcome.spec.protocol} failed; {completed}/{len(outcomes)} "
                    f"sibling cells completed and were retained in the cache"
                )
            raise exc
    return [outcome.result for outcome in outcomes]  # type: ignore[return-value]


def run_tasks(
    fn, calls: Iterable, *, jobs: int = 1, return_exceptions: bool = False
) -> list:
    """Generic fan-out: ``[fn(call) for call in calls]`` with the same
    execution contract as :func:`run_specs` — ``jobs=1`` runs in-process,
    ``jobs>1`` runs on a supervised worker pool (``fn`` and every call
    must pickle), and results always come back in submission order.
    Used directly by sweeps whose cells are not :class:`RunSpec`-shaped
    (e.g. the model checker's litmus × protocol cells).

    A worker that dies mid-call (SIGKILL, OOM) costs one re-submission:
    the :class:`~repro.harness.supervisor.PoolSupervisor` rebuilds the
    pool and re-runs the lost calls; only a call that kills its worker
    ``RetryPolicy.max_crashes`` times fails, as ``BrokenProcessPool``.  A
    raising call is not retried — deterministic cells raise again.

    Every call runs to completion even when a sibling raises.  With
    ``return_exceptions`` the failed slots hold the exception objects
    themselves (mirroring ``asyncio.gather``); otherwise the first error
    is re-raised once all calls have finished.
    """
    calls = list(calls)
    jobs = resolve_jobs(jobs)
    slots: list = []
    if jobs > 1 and len(calls) > 1:
        # Imported here: the supervisor imports this module, and serial
        # sweeps (and the benchmark's import set) never load the pool.
        from concurrent.futures.process import BrokenProcessPool

        from repro.harness.supervisor import PoolSupervisor, RetryPolicy, call_with_marker

        supervisor = PoolSupervisor(
            workers=min(jobs, len(calls)),
            policy=RetryPolicy(max_attempts=1),
            worker_fn=partial(call_with_marker, fn),
        )
        try:
            tasks = [supervisor.submit(call, str(i)) for i, call in enumerate(calls)]
            for task, resolution in zip(tasks, supervisor.wait(tasks)):
                if resolution.ok:
                    slots.append(resolution.result)
                elif task.last_error is not None:  # the call raised
                    slots.append(task.last_error.exception)
                else:  # the call kept killing its worker
                    slots.append(BrokenProcessPool(resolution.error["message"]))
        finally:
            supervisor.shutdown()
    else:
        for call in calls:
            try:
                slots.append(fn(call))
            except Exception as exc:
                slots.append(exc)
    if not return_exceptions:
        for slot in slots:
            if isinstance(slot, Exception):
                raise slot
    return slots


def default_cache(cache_dir: str | None = None) -> ResultCache:
    """The CLI's cache: ``--cache-dir``, else ``$REPRO_CACHE_DIR``, else
    ``results/.runcache`` under the working directory."""
    root = cache_dir or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    return ResultCache(root)

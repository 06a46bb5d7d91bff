"""The asyncio sweep job server: stdlib-only HTTP/1.1 over a worker pool.

One event loop owns all bookkeeping (job registry, in-flight index,
metrics); worker processes only ever see picklable
:class:`~repro.harness.parallel.RunSpec` cells.  Each submitted cell gets
a *watcher* task that awaits the (possibly shared) supervised outcome
and settles the cell — the supervisor persists successful results to the
cache and retires the in-flight entry *before* the outcome resolves, so
a cell's lifecycle is:

    POST /jobs -> admission check -> lookup (cache | dedupe | run)
        -> supervised attempts (retry/backoff, crash recovery, deadline)
        -> [supervisor] cache.store + retire key -> watcher settles cell

Failure handling is the supervisor's job (:mod:`repro.harness.
supervisor`, a synchronous state machine the server steps from a tick
task on its event loop); the server adds **bounded admission** (jobs beyond
``max_queued`` in-flight cells are rejected with HTTP 503 and a
``Retry-After`` header — load shedding is visible as
``repro_rejected_total``) and **graceful drain** (SIGTERM/SIGINT stops
accepting jobs, lets in-flight cells settle up to a drain budget while
``/healthz`` reports ``draining``, persists their results, then exits).

The HTTP layer is deliberately minimal: request line + headers +
``Content-Length`` body, ``Connection: close`` responses, JSON bodies
everywhere except the Prometheus ``/metrics`` text.  It exists so the
service has zero dependencies, not to be a general web server.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import traceback

from repro.harness.parallel import (
    ResultCache,
    RunSpec,
    cache_key_for,
)
from repro.harness.supervisor import _USE_DEFAULT, RetryPolicy
from repro.service.executor import SweepExecutor
from repro.service.jobs import Job, JobCell, JobRegistry
from repro.service.metrics import ServiceMetrics
from repro.service.specs import spec_from_dict

#: Largest accepted request body; a 4096-cell job with full configs is
#: well under this.
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Largest accepted request line / header line.
MAX_LINE_BYTES = 64 * 1024
#: Default bound on in-flight cells; submissions past it get HTTP 503.
DEFAULT_MAX_QUEUED = 4096
#: Default drain budget (seconds) before a signalled server gives up on
#: in-flight cells and exits.
DEFAULT_DRAIN_TIMEOUT = 30.0


class BadRequest(Exception):
    """A malformed request; rendered as an HTTP 400 with the message."""


class ServiceUnavailable(Exception):
    """Load shed or drain; rendered as HTTP 503 with ``Retry-After``."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SweepService:
    """The server: routing, admission, job submission, and cell watchers."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        cache: ResultCache | None = None,
        max_workers_cap: int | None = None,
        max_queued: int | None = DEFAULT_MAX_QUEUED,
        cell_deadline: float | None = None,
        policy: RetryPolicy | None = None,
        tick: float = 0.05,
        worker_fn=None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_queued = max_queued
        self.metrics = ServiceMetrics()
        self.executor = SweepExecutor(
            workers=workers,
            cache=cache,
            max_workers_cap=max_workers_cap,
            policy=policy,
            default_deadline=cell_deadline,
            tick=tick,
            worker_fn=worker_fn,
            on_counter=self.metrics.bump,
        )
        self.registry = JobRegistry()
        self._server: asyncio.base_events.Server | None = None
        self._ticker: asyncio.Task | None = None
        self._watchers: set[asyncio.Task] = set()
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start serving, and start the supervision tick; returns
        the bound (host, port) — with ``port=0`` the kernel picks a port."""
        self._ticker = asyncio.create_task(self._tick())
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def _tick(self) -> None:
        """The supervision loop: one ``step()`` every ``tick`` seconds, on
        the event loop, so supervisor state stays loop-confined."""
        supervisor = self.executor.supervisor
        while True:
            await asyncio.sleep(supervisor.tick)
            try:
                supervisor.step()
            except Exception as exc:  # pragma: no cover - supervision must survive
                print(f"supervisor step failed: {exc!r}", file=sys.stderr)
                traceback.print_exc()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def begin_drain(self) -> None:
        """Stop accepting jobs; status/health/metrics stay served."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def settled(self) -> bool:
        """True when no cell is in flight and every watcher has run."""
        return self.executor.queue_depth() == 0 and not self._watchers

    async def drain(self, budget: float = DEFAULT_DRAIN_TIMEOUT) -> bool:
        """Graceful shutdown: stop admissions, let in-flight cells settle
        (their results are persisted to the cache by the supervisor as
        usual) for up to ``budget`` seconds, then stop.  Returns True if
        everything settled inside the budget."""
        self.begin_drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        while not self.settled() and loop.time() < deadline:
            await asyncio.sleep(min(0.05, self.executor.supervisor.tick))
        finished = self.settled()
        await self.stop()
        return finished

    async def stop(self) -> None:
        """Shut down without dropping completed work: results already
        finished in workers are harvested into the cache *before* the
        pool goes down, and their watchers get one chance to settle the
        owning job cells."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._ticker is not None:
            self._ticker.cancel()
            await asyncio.gather(self._ticker, return_exceptions=True)
            self._ticker = None
        # Settle cells whose workers already produced a result (persisting
        # them via the supervisor's settle hook), then everything else as
        # structured ``shutdown`` errors — never as silently-dropped work.
        self.executor.shutdown()
        if self._watchers:
            # Watchers wake on the outcome futures shutdown just resolved.
            await asyncio.wait(list(self._watchers), timeout=5.0)
        for task in list(self._watchers):
            task.cancel()
        if self._watchers:
            await asyncio.gather(*self._watchers, return_exceptions=True)

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            headers: dict[str, str] = {}
            try:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, path, body = request
                self.metrics.bump("requests")
                status, content_type, payload = self._route(method, path, body)
            except BadRequest as exc:
                self.metrics.bump("requests")
                self.metrics.bump("bad_requests")
                status, content_type, payload = (
                    400,
                    "application/json",
                    json.dumps({"error": str(exc)}).encode(),
                )
            except ServiceUnavailable as exc:
                self.metrics.bump("rejected")
                headers["Retry-After"] = f"{max(1, round(exc.retry_after))}"
                status, content_type, payload = (
                    503,
                    "application/json",
                    json.dumps(
                        {"error": str(exc), "retry_after": exc.retry_after}
                    ).encode(),
                )
            except asyncio.IncompleteReadError:
                return
            await self._respond(writer, status, content_type, payload, headers)
        except (ConnectionError, asyncio.LimitOverrunError):
            pass  # client went away or sent garbage; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise BadRequest("malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise BadRequest("malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(f"body too large (limit {MAX_BODY_BYTES} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, str, bytes]:
        def as_json(status: int, payload: dict) -> tuple[int, str, bytes]:
            return status, "application/json", (json.dumps(payload) + "\n").encode()

        if path == "/healthz" and method == "GET":
            return as_json(200, self._healthz())
        if path == "/metrics" and method == "GET":
            text = self.metrics.render(
                queue_depth=self.executor.queue_depth(),
                running=self.executor.running_count(),
                workers=self.executor.worker_health(),
            )
            return 200, "text/plain; version=0.0.4", text.encode()
        if path == "/jobs":
            if method == "POST":
                job = self._submit_job(body)
                return as_json(202, {"job": job.id, "cells": len(job.cells),
                                     "status_url": f"/jobs/{job.id}"})
            if method == "GET":
                return as_json(
                    200, {"jobs": [job.summary_dict() for job in self.registry.all()]}
                )
            return 405, "application/json", b'{"error": "method not allowed"}\n'
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, "application/json", b'{"error": "method not allowed"}\n'
            job = self.registry.get(path[len("/jobs/"):])
            if job is None:
                return 404, "application/json", b'{"error": "no such job"}\n'
            return as_json(200, job.as_dict())
        return 404, "application/json", b'{"error": "no such endpoint"}\n'

    def _healthz(self) -> dict:
        workers = self.executor.worker_health()
        if self._draining:
            status = "draining"
        else:
            status = "ok" if self.executor.healthy else "degraded"
        payload = {
            "status": status,
            "draining": self._draining,
            "jobs": len(self.registry),
            "workers": workers,
        }
        payload.update(
            self.metrics.snapshot(
                queue_depth=self.executor.queue_depth(),
                running=self.executor.running_count(),
                workers=workers,
            )
        )
        return payload

    # -- job submission ------------------------------------------------------

    def _submit_job(self, body: bytes) -> Job:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("cells"), list):
            raise BadRequest('body must be {"cells": [...]}')
        if not payload["cells"]:
            raise BadRequest("job has no cells")
        try:
            specs = [spec_from_dict(cell) for cell in payload["cells"]]
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        deadline = _USE_DEFAULT
        if "cell_deadline" in payload:
            deadline = payload["cell_deadline"]
            if deadline is not None:
                try:
                    deadline = float(deadline)
                except (TypeError, ValueError):
                    raise BadRequest(
                        "cell_deadline must be a number of seconds or null"
                    ) from None
                if deadline <= 0:
                    raise BadRequest("cell_deadline must be positive")

        if self._draining:
            raise ServiceUnavailable(
                "server is draining and no longer accepts jobs", retry_after=30.0
            )
        # Bounded admission: shed load instead of queueing without limit.
        # The check is conservative — cells that would resolve via cache
        # or dedupe count against the bound until they are looked up.
        if self.max_queued is not None:
            depth = self.executor.queue_depth()
            if depth + len(specs) > self.max_queued:
                raise ServiceUnavailable(
                    f"queue full: {depth} cells in flight + {len(specs)} "
                    f"submitted exceeds --max-queued {self.max_queued}",
                    retry_after=1.0,
                )

        job = self.registry.create()
        self.metrics.bump("jobs_submitted")
        self.metrics.bump("cells_submitted", len(specs))
        for index, spec in enumerate(specs):
            job.cells.append(self._submit_cell(job, index, spec, deadline))
        return job

    def _submit_cell(
        self, job: Job, index: int, spec: RunSpec, deadline=_USE_DEFAULT
    ) -> JobCell:
        key = cache_key_for(spec)
        source, resolved = self.executor.lookup(spec, key, deadline=deadline)
        cell = JobCell(index=index, spec=spec, key=key, source=source)
        if source == "cache":
            cell.status = "done"
            cell.summary = resolved.summary()
            self.metrics.bump("cache_hits")
        else:
            cell.task = resolved
            if source == "dedupe":
                self.metrics.bump("dedupe_hits")
            watcher = asyncio.create_task(self._watch_cell(cell))
            self._watchers.add(watcher)
            watcher.add_done_callback(self._watchers.discard)
        return cell

    async def _watch_cell(self, cell: JobCell) -> None:
        """Await one cell's *terminal* supervised outcome and settle it.
        Retries, crash re-submissions, and deadlines all happen upstream
        in the supervisor; by the time the outcome future resolves the
        result is already in the cache (on success) and the in-flight key
        retired — a follower never observes a pre-retry failure."""
        resolution = await asyncio.wrap_future(cell.task.outcome)
        cell.attempts = resolution.attempts
        cell.task = None
        if resolution.ok:
            cell.status = "done"
            cell.summary = resolution.result.summary()
        else:
            cell.status = "failed"
            cell.error = resolution.error
            self.metrics.bump("cells_failed")


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    workers: int | None = None,
    cache: ResultCache | None = None,
    max_queued: int | None = DEFAULT_MAX_QUEUED,
    cell_deadline: float | None = None,
    max_retries: int = RetryPolicy.max_attempts,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ready_message: bool = True,
) -> None:
    """Blocking entry point used by ``denovosync-bench serve``.

    SIGTERM/SIGINT triggers a graceful drain: admissions stop (HTTP 503),
    in-flight cells get up to ``drain_timeout`` seconds to settle (their
    results are persisted to the cache), then the server exits.  A second
    signal skips the rest of the drain budget."""

    async def main() -> None:
        service = SweepService(
            host=host, port=port, workers=workers, cache=cache,
            max_queued=max_queued, cell_deadline=cell_deadline,
            policy=RetryPolicy(max_attempts=max(1, max_retries)),
        )
        bound_host, bound_port = await service.start()
        if ready_message:
            print(
                f"sweep service on http://{bound_host}:{bound_port} "
                f"({service.executor.workers} workers, cache "
                f"{'off' if cache is None else cache.root})",
                flush=True,
            )

        loop = asyncio.get_running_loop()
        drain_requested = asyncio.Event()
        force_stop = asyncio.Event()

        def on_signal() -> None:
            if drain_requested.is_set():
                force_stop.set()
            else:
                drain_requested.set()

        signals_installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, on_signal)
                signals_installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loop; KeyboardInterrupt path still works

        serve_task = asyncio.create_task(service.serve_forever())
        drain_task = asyncio.create_task(drain_requested.wait())
        try:
            await asyncio.wait(
                {serve_task, drain_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if drain_requested.is_set():
                service.begin_drain()
                if ready_message:
                    print(
                        f"draining: {service.executor.queue_depth()} cells in "
                        f"flight, budget {drain_timeout:g}s (signal again to "
                        f"skip)",
                        flush=True,
                    )
                waiter = asyncio.create_task(force_stop.wait())
                deadline = loop.time() + drain_timeout
                while not service.settled() and not force_stop.is_set():
                    if loop.time() >= deadline:
                        break
                    await asyncio.wait({waiter}, timeout=0.05)
                waiter.cancel()
        except asyncio.CancelledError:
            pass
        finally:
            drain_task.cancel()
            serve_task.cancel()
            await asyncio.gather(serve_task, drain_task, return_exceptions=True)
            for sig in signals_installed:
                loop.remove_signal_handler(sig)
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - non-POSIX fallback
        pass

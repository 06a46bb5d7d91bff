"""Service-level failure handling: admission control, graceful drain,
worker-kill recovery visible through /healthz, and the chaos harness.

Each test builds its own :class:`SweepService` (event loop on a daemon
thread, real worker pool) so it can tune supervision parameters — e.g.
a huge supervision tick plus manual ``step()`` calls makes the
kill -> degraded -> recycled -> ok sequence fully deterministic.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.config import config_16
from repro.harness.parallel import ResultCache, RunSpec, kernel_cell
from repro.service import ServiceClient, SweepService
from repro.service.chaos import ChaosConfig, run_service_chaos
from repro.service.client import ServiceError
from repro.workloads.base import KernelSpec


def specs_for(seeds, scale=0.02, protocol="MESI", name="counter"):
    return [
        RunSpec(
            kernel_cell("tatas", name, KernelSpec(scale=scale)),
            protocol, config_16(), seed=seed,
        )
        for seed in seeds
    ]


def poisoned_spec(seed=1):
    return RunSpec(
        kernel_cell("tatas", "no-such-kernel", KernelSpec(scale=0.02)),
        "MESI", config_16(), seed=seed,
    )


class Harness:
    """A running service on its own loop thread, with manual supervision
    stepping for the deterministic tests."""

    def __init__(self, **service_kwargs) -> None:
        service_kwargs.setdefault("host", "127.0.0.1")
        service_kwargs.setdefault("port", 0)
        service_kwargs.setdefault("workers", 2)
        self.service = SweepService(**service_kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        _, self.port = self.submit_coro(self.service.start())
        self.client = ServiceClient("127.0.0.1", self.port, timeout=30.0)

    def submit_coro(self, coro, timeout=60):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def call(self, fn, *args):
        """Run a sync function on the service's event loop."""
        async def _inner():
            return fn(*args)
        return self.submit_coro(_inner())

    def pump(self):
        """One manual supervision pass, on the loop."""
        self.call(self.service.executor.supervisor.step)

    def close(self) -> None:
        self.submit_coro(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


def wait_until(predicate, timeout=30.0, interval=0.005, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class TestAdmissionControl:
    def test_overflow_rejected_with_retry_after_and_counter(self):
        harness = Harness(workers=1, cache=None, max_queued=2)
        try:
            client = harness.client
            accepted = client.submit_specs(specs_for([7001, 7002], scale=0.5))

            with pytest.raises(ServiceError) as excinfo:
                client.submit_specs(specs_for([7003]))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1
            assert "queue full" in str(excinfo.value)
            assert "repro_rejected_total 1" in client.metrics()

            # The accepted job is unaffected by the shed submission...
            settled = client.wait(accepted["job"], timeout=240)
            assert settled["status"] == "done"
            # ...and once the queue drains, the same submission is admitted.
            retried = client.submit_specs(specs_for([7003]))
            assert client.wait(retried["job"], timeout=240)["status"] == "done"
            health = client.healthz()
            assert health["counters"]["rejected"] == 1
        finally:
            harness.close()

    def test_rejection_leaves_no_job_behind(self):
        harness = Harness(workers=1, cache=None, max_queued=1)
        try:
            client = harness.client
            with pytest.raises(ServiceError):
                client.submit_specs(specs_for([7101, 7102]))
            assert client.jobs()["jobs"] == []
        finally:
            harness.close()


class TestGracefulDrain:
    def test_drain_rejects_new_jobs_but_persists_inflight_results(self, tmp_path):
        cache_root = tmp_path / "drain-cache"
        specs = specs_for([7201, 7202], scale=0.3)
        harness = Harness(workers=2, cache=ResultCache(cache_root))
        try:
            client = harness.client
            accepted = client.submit_specs(specs)
            harness.call(harness.service.begin_drain)

            health = client.healthz()
            assert health["status"] == "draining"
            assert health["draining"] is True

            with pytest.raises(ServiceError) as excinfo:
                client.submit_specs(specs_for([7203]))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            # Status endpoints keep serving while draining.
            assert client.job(accepted["job"])["job"] == accepted["job"]

            finished = harness.submit_coro(harness.service.drain(budget=120))
            assert finished is True
        finally:
            harness.close()
        # Every in-flight result was persisted before exit: a fresh cache
        # handle over the same directory serves both cells.
        cache = ResultCache(cache_root)
        for spec in specs:
            assert cache.load(spec) is not None


class TestWorkerKillRecovery:
    def test_healthz_flips_ok_degraded_ok_and_counters_are_accurate(self):
        # Huge tick: supervision only advances when the test pumps it, so
        # every phase of kill -> degraded -> recycled -> ok is observable.
        harness = Harness(workers=2, cache=None, tick=30.0)
        try:
            client = harness.client
            assert client.healthz()["status"] == "ok"
            recycled_samples = [client.healthz()["counters"]["workers_recycled"]]
            assert recycled_samples[0] == 0

            accepted = client.submit_specs(
                specs_for([7301, 7302, 7303, 7304], scale=0.5)
            )
            wait_until(
                lambda: harness.service.executor.running_count() > 0,
                message="a cell to start running",
            )
            os.kill(harness.service.executor.worker_pids()[0], signal.SIGKILL)

            # The break is visible (degraded) before the supervisor reacts.
            wait_until(
                lambda: client.healthz()["status"] == "degraded",
                message="healthz to report degraded",
            )
            recycled_samples.append(client.healthz()["counters"]["workers_recycled"])

            # One supervision pass recycles the pool and health recovers.
            harness.pump()
            wait_until(
                lambda: client.healthz()["status"] == "ok",
                message="healthz to recover",
            )
            recycled_samples.append(client.healthz()["counters"]["workers_recycled"])

            # Pump until the sweep settles on the rebuilt pool.
            deadline = time.monotonic() + 240
            while client.job(accepted["job"])["status"] == "running":
                assert time.monotonic() < deadline, "job never settled"
                harness.pump()
                time.sleep(0.05)
            settled = client.job(accepted["job"])
            assert settled["status"] == "done"
            assert all(c["status"] == "done" for c in settled["cell_details"])

            counters = client.healthz()["counters"]
            recycled_samples.append(counters["workers_recycled"])
            # Monotone, and accurate: exactly one kill -> exactly one recycle.
            assert recycled_samples == sorted(recycled_samples)
            assert recycled_samples[-1] == 1
            # Crash recovery re-submits lost cells; it is not a *retry*.
            assert counters["cells_retried"] == 0
            assert harness.service.executor.worker_health()["alive"] == 2
        finally:
            harness.close()

    def test_cells_retried_counts_transient_attempts(self):
        harness = Harness(workers=1, cache=None)
        try:
            client = harness.client
            job = client.submit_specs([poisoned_spec(seed=7401)])["job"]
            status = client.wait(job, timeout=120)
            assert status["status"] == "failed"
            cell = status["cell_details"][0]
            assert cell["error"]["kind"] == "KeyError"
            assert cell["attempts"] == 3  # default RetryPolicy.max_attempts
            assert client.healthz()["counters"]["cells_retried"] == 2
        finally:
            harness.close()


class TestChaosEndToEnd:
    def test_chaos_run_survives_two_worker_kills(self, tmp_path):
        report = run_service_chaos(
            ChaosConfig(
                workers=2,
                kills=2,
                kill_interval=0.2,
                kernels=("counter",),
                protocols=("MESI", "DeNovoSync"),
                scale=0.25,
                # The slow cell must overrun the deadline on any host: at
                # 6.0 it took about 4.1 s on a 2-vCPU Xeon, a coin flip
                # against the 4.0 s deadline.
                slow_scale=12.0,
                cell_deadline=4.0,
                wait_timeout=180.0,
                cache_dir=str(tmp_path / "chaos-cache"),
            )
        )
        assert report.ok, report.describe()
        assert report.kills_delivered >= 2
        assert report.counters["workers_recycled"] >= 2

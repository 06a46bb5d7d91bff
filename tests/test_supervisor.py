"""Tests for the worker-pool supervisor (``repro.harness.supervisor``).

These drive :class:`PoolSupervisor` deterministically: the supervision
loop is never started; tests call ``step()`` by hand (every state
transition lives there), with real worker processes underneath so crash
attribution, pool recycling, and harvest are exercised for real.

Worker functions are module-level so they pickle under the process pool.
The supervisor never introspects the spec it is given, so these tests
pass plain strings (paths, sleep durations) instead of full RunSpecs.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro.config import config_for_cores
from repro.harness.parallel import RunSpec, execute_spec, kernel_cell
from repro.harness.supervisor import PoolSupervisor, RetryPolicy, execute_cell
from repro.service import SweepService
from repro.workloads.base import KernelSpec

#: fast, deterministic backoff so retry tests take milliseconds.
FAST = dict(base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.0)


# -- module-level worker behaviors (must be picklable) -----------------------

def ok_worker(spec, marker_path):
    Path(marker_path).touch()
    return f"ok:{spec}"


def flaky_worker(spec, marker_path):
    """Fails the first time, succeeds after: ``spec`` is a sentinel path
    recording (across processes) that a first attempt already happened."""
    Path(marker_path).touch()
    sentinel = Path(spec)
    if not sentinel.exists():
        sentinel.touch()
        raise ValueError("transient worker failure")
    return "recovered"


def flaky_cell_worker(spec, marker_path):
    """Fails a pool's first attempt, then simulates ``spec``: the
    sentinel lives in the supervisor's own spool directory."""
    sentinel = Path(marker_path).parent / "first-attempt"
    if not sentinel.exists():
        Path(marker_path).touch()
        sentinel.touch()
        raise ValueError("transient worker failure")
    return execute_cell(spec, marker_path)


def always_fail_worker(spec, marker_path):
    Path(marker_path).touch()
    raise ValueError(f"permanent failure for {spec}")


def suicide_worker(spec, marker_path):
    Path(marker_path).touch()
    os.kill(os.getpid(), signal.SIGKILL)


def sleepy_worker(spec, marker_path):
    Path(marker_path).touch()
    time.sleep(float(spec))
    return f"slept:{spec}"


# -- helpers -----------------------------------------------------------------

async def drive(supervisor, *tasks, timeout=90.0):
    """Step the supervisor until every task settles; returns resolutions."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not all(task.outcome.done() for task in tasks):
        assert loop.time() < deadline, "cell never settled"
        supervisor.step()
        await asyncio.sleep(0.02)
    return [task.outcome.result() for task in tasks]


def make(workers=1, *, worker_fn, counters=None, **policy_kwargs):
    policy = RetryPolicy(**{**FAST, **policy_kwargs})
    on_counter = None
    if counters is not None:
        def on_counter(name, by=1):
            counters[name] = counters.get(name, 0) + by
    return PoolSupervisor(
        workers=workers, policy=policy, worker_fn=worker_fn,
        on_counter=on_counter,
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="max_crashes"):
            RetryPolicy(max_crashes=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(jitter=-0.1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        rng = random.Random(0)
        assert policy.delay(1, rng) == pytest.approx(0.1)
        assert policy.delay(2, rng) == pytest.approx(0.2)
        assert policy.delay(3, rng) == pytest.approx(0.4)
        assert policy.delay(4, rng) == pytest.approx(0.5)  # capped
        assert policy.delay(10, rng) == pytest.approx(0.5)

    def test_jitter_spreads_but_stays_bounded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        rng = random.Random(42)
        delays = [policy.delay(1, rng) for _ in range(200)]
        assert all(0.1 <= d <= 0.15 for d in delays)
        assert len({round(d, 6) for d in delays}) > 1


class TestRetries:
    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        counters = {}
        supervisor = make(worker_fn=flaky_worker, counters=counters)

        async def scenario():
            task = supervisor.submit(str(tmp_path / "sentinel"), "k1")
            return (await drive(supervisor, task))[0], task

        try:
            resolution, task = asyncio.run(scenario())
        finally:
            supervisor.shutdown()
        assert resolution.ok
        assert resolution.result == "recovered"
        assert resolution.attempts == 2
        assert task.failures == 1
        assert supervisor.retries == 1
        assert counters.get("cells_retried") == 1

    def test_retry_budget_exhausted_settles_with_final_error(self):
        supervisor = make(worker_fn=always_fail_worker, max_attempts=2)

        async def scenario():
            task = supervisor.submit("doomed", "k1")
            return (await drive(supervisor, task))[0]

        try:
            resolution = asyncio.run(scenario())
        finally:
            supervisor.shutdown()
        assert not resolution.ok
        assert resolution.error["kind"] == "ValueError"
        assert "permanent failure" in resolution.error["message"]
        assert resolution.error["attempts"] == 2
        assert resolution.attempts == 2
        assert resolution.error["traceback"]


class TestCrashRecovery:
    def test_repeat_crasher_settles_as_worker_crash(self):
        counters = {}
        supervisor = make(
            worker_fn=suicide_worker, counters=counters, max_crashes=2
        )

        async def scenario():
            task = supervisor.submit("boom", "k1")
            return (await drive(supervisor, task))[0]

        try:
            resolution = asyncio.run(scenario())
        finally:
            supervisor.shutdown()
        assert not resolution.ok
        assert resolution.error["kind"] == "worker_crash"
        assert "mid-execution" in resolution.error["message"]
        assert supervisor.crash_settles == 1
        assert counters.get("cells_crashed") == 1
        assert counters.get("workers_recycled", 0) >= 2

    def test_innocent_bystander_resubmitted_without_crash_charge(self, tmp_path):
        """Killing a worker mid-cell charges only the cell it was running;
        a queued cell lost to the same pool break is re-submitted free."""
        supervisor = make(workers=1, worker_fn=sleepy_worker, max_crashes=3)

        async def scenario():
            running = supervisor.submit("0.7", "victim")
            queued = supervisor.submit("0.01", "bystander")
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            while not (running.marker and running.marker.exists()):
                assert loop.time() < deadline, "victim never started"
                await asyncio.sleep(0.01)
            os.kill(supervisor.worker_pids()[0], signal.SIGKILL)
            resolutions = await drive(supervisor, running, queued)
            return resolutions, running, queued

        try:
            (res_running, res_queued), running, queued = asyncio.run(scenario())
        finally:
            supervisor.shutdown()
        assert res_running.ok and res_running.result == "slept:0.7"
        assert res_queued.ok and res_queued.result == "slept:0.01"
        assert running.crashes == 1
        assert queued.crashes == 0
        assert supervisor.recycles >= 1


class TestDeadlines:
    def test_hung_cell_settles_as_deadline_exceeded_and_pool_survives(self):
        counters = {}
        supervisor = make(worker_fn=sleepy_worker, counters=counters)

        async def scenario():
            loop = asyncio.get_running_loop()
            hung = supervisor.submit("60", "hung", deadline=0.3)
            t0 = loop.time()
            resolution = (await drive(supervisor, hung))[0]
            elapsed = loop.time() - t0
            # The worker slot is immediately reusable: a normal cell runs
            # to completion on the recycled pool.
            after = supervisor.submit("0.01", "after")
            after_res = (await drive(supervisor, after))[0]
            return resolution, elapsed, after_res, supervisor.worker_health()

        try:
            resolution, elapsed, after_res, health = asyncio.run(scenario())
        finally:
            supervisor.shutdown()
        assert not resolution.ok
        assert resolution.error["kind"] == "deadline_exceeded"
        assert "0.3" in resolution.error["message"]
        # Settled within deadline + supervision slack — nowhere near the
        # cell's own 60s runtime.
        assert elapsed < 10.0
        assert counters.get("cells_deadline_exceeded") == 1
        assert supervisor.deadline_settles == 1
        assert after_res.ok
        assert health["alive"] >= 1

    def test_deadline_recycle_charges_no_crashes(self):
        supervisor = make(workers=1, worker_fn=sleepy_worker)

        async def scenario():
            hung = supervisor.submit("60", "hung", deadline=0.2)
            await drive(supervisor, hung)
            return hung

        try:
            hung = asyncio.run(scenario())
        finally:
            supervisor.shutdown()
        assert hung.crashes == 0  # intentional recycle, nobody charged


class TestShutdownHarvest:
    def test_shutdown_settles_completed_work_instead_of_dropping_it(self):
        """A result that finished in a worker but was never observed by a
        supervision pass must be harvested on shutdown, not discarded."""
        settled = []
        supervisor = PoolSupervisor(
            workers=1, policy=RetryPolicy(**FAST), worker_fn=ok_worker,
            on_settle=settled.append,
        )

        async def scenario():
            task = supervisor.submit("payload", "k1")
            # Wait for the worker to finish WITHOUT stepping: the result
            # sits unobserved in the pool future.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            while not task.pool_future.done():
                assert loop.time() < deadline
                await asyncio.sleep(0.01)
            supervisor.shutdown()
            return task.outcome.result()

        resolution = asyncio.run(scenario())
        assert resolution.ok
        assert resolution.result == "ok:payload"
        assert [r.ok for r in settled] == [True]

    def test_legacy_stop_order_dropped_completed_results(self, monkeypatch):
        """Re-breaking shim: without the harvest pass (the old shutdown
        behavior — cancel everything, then kill the pool), the very same
        completed-in-worker result is lost and the cell settles as a
        ``shutdown`` error."""
        monkeypatch.setattr(PoolSupervisor, "harvest", lambda self: 0)
        supervisor = PoolSupervisor(
            workers=1, policy=RetryPolicy(**FAST), worker_fn=ok_worker
        )

        async def scenario():
            task = supervisor.submit("payload", "k1")
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 30.0
            while not task.pool_future.done():
                assert loop.time() < deadline
                await asyncio.sleep(0.01)
            supervisor.shutdown()
            return task.outcome.result()

        resolution = asyncio.run(scenario())
        assert not resolution.ok
        assert resolution.error["kind"] == "shutdown"

    def test_unfinished_cells_settle_with_structured_shutdown_error(self):
        supervisor = make(worker_fn=sleepy_worker)

        async def scenario():
            task = supervisor.submit("60", "k1")
            supervisor.shutdown()
            return task.outcome.result()

        resolution = asyncio.run(scenario())
        assert not resolution.ok
        assert resolution.error["kind"] == "shutdown"
        assert supervisor.worker_health()["shutdown"]


class TestDedupeAfterFailure:
    """Drives the service's cache -> in-flight -> submit lookup directly
    (no HTTP), stepping its supervisor by hand."""

    SPEC = RunSpec(
        kernel_cell("tatas", "counter", KernelSpec(scale=0.02)),
        "MESI", config_for_cores(4), seed=1,
    )

    def test_follower_observes_the_retried_outcome(self):
        """Satellite regression: a submission deduped against an in-flight
        cell whose first attempt *fails* must observe the retried success,
        not the dead first attempt."""
        service = SweepService(
            workers=1, cache=None, worker_fn=flaky_cell_worker,
            policy=RetryPolicy(**FAST),
        )

        async def scenario():
            cell1 = service._submit_cell(0, self.SPEC)
            cell2 = service._submit_cell(1, self.SPEC)
            leader, follower = cell1.task, cell2.task
            assert cell1.source == "run" and cell2.source == "dedupe"
            assert follower is leader  # one task, one terminal outcome
            resolutions = await drive(service.supervisor, leader, follower)
            return resolutions

        try:
            res_leader, res_follower = asyncio.run(scenario())
        finally:
            service.supervisor.shutdown()
        assert res_leader.ok and res_follower.ok
        expected = execute_spec(self.SPEC).summary()
        assert res_follower.result.summary() == expected
        assert res_follower.attempts == 2

    def test_without_retries_the_follower_shares_the_failure(self):
        """Re-breaking shim: with retries disabled (``max_attempts=1``, the
        legacy behavior), the follower is stuck with the first attempt's
        failure — the exact outcome the retry layer exists to prevent."""
        service = SweepService(
            workers=1, cache=None, worker_fn=flaky_cell_worker,
            policy=RetryPolicy(max_attempts=1, **FAST),
        )

        async def scenario():
            leader = service._submit_cell(0, self.SPEC).task
            cell2 = service._submit_cell(1, self.SPEC)
            assert cell2.source == "dedupe"
            return await drive(service.supervisor, leader, cell2.task)

        try:
            res_leader, res_follower = asyncio.run(scenario())
        finally:
            service.supervisor.shutdown()
        assert not res_leader.ok and not res_follower.ok
        assert res_follower.error["kind"] == "ValueError"

"""Tests for the sweep job server (``repro.service``).

The end-to-end tests start a real :class:`SweepService` on an ephemeral
port (its event loop in a daemon thread, its simulations in a real
2-worker process pool) and drive it through the blocking
:class:`ServiceClient` — exactly the production topology, scaled down.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.config import config_16
from repro.harness.parallel import ResultCache, RunSpec, cache_key_for, kernel_cell
from repro.service import ServiceClient, SweepService, spec_from_dict, spec_to_dict
from repro.service.client import ServiceError
from repro.service.specs import describe_workload
from repro.workloads.base import KernelSpec

SCALE = 0.02
PROTOCOLS = ("MESI", "DeNovoSync0", "DeNovoSync", "MESI-RFO")


def sweep_specs(protocols=PROTOCOLS, seed=1, name="counter"):
    config = config_16()
    return [
        RunSpec(kernel_cell("tatas", name, KernelSpec(scale=SCALE)), protocol,
                config, seed=seed)
        for protocol in protocols
    ]


def poisoned_spec(seed=1):
    """A cell whose worker-side materialization raises (unknown kernel)."""
    return RunSpec(
        kernel_cell("tatas", "no-such-kernel", KernelSpec(scale=SCALE)),
        "MESI",
        config_16(),
        seed=seed,
    )


#: Config overrides that name a geometry the simulator cannot run.
UNRUNNABLE_GEOMETRY = (
    {"l2_banks": 17},
    {"l2_banks": 0},
    {"l1_assoc": 0},
    {"word_bytes": 0},
    {"line_bytes": 0},
    {"l1_bytes": 0},
)


def unrunnable_cells():
    """One wire-format cell per :data:`UNRUNNABLE_GEOMETRY` override."""
    cell = spec_to_dict(sweep_specs(protocols=("MESI",))[0])
    return [
        {**cell, "config": {**cell["config"], **bad}} for bad in UNRUNNABLE_GEOMETRY
    ]


class ServiceHarness:
    """A running service + the thread its event loop lives on."""

    def __init__(self, cache_root) -> None:
        self.service = SweepService(
            host="127.0.0.1", port=0, workers=2, cache=ResultCache(cache_root)
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        _, self.port = self.submit_coro(self.service.start())
        self.client = ServiceClient("127.0.0.1", self.port, timeout=30.0)

    def submit_coro(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    def close(self) -> None:
        self.submit_coro(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


def submit_one_cell(harness) -> str:
    """Submit a one-cell job, wait until it is done, and return its id:
    a test that reads jobs submits its own instead of relying on jobs
    that other tests left in the module-scoped harness."""
    job = harness.client.submit_specs(sweep_specs(protocols=("MESI",)))["job"]
    assert harness.client.wait(job, timeout=300)["status"] == "done"
    return job


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    harness = ServiceHarness(tmp_path_factory.mktemp("service-cache"))
    yield harness
    harness.close()


class TestEndToEnd:
    def test_resubmitted_sweep_is_all_cache_or_dedupe_hits(self, harness):
        client = harness.client
        specs = sweep_specs()

        first = client.submit_specs(specs)
        assert first["cells"] == 4
        settled = client.wait(first["job"], timeout=300)
        assert settled["status"] == "done"
        assert settled["counts"]["done"] == 4
        assert all(c["status"] == "done" for c in settled["cell_details"])
        assert all(c["summary"]["cycles"] > 0 for c in settled["cell_details"])

        # Second submission of the identical sweep: 100% served without a
        # new simulation (on-disk cache, or dedupe against an in-flight
        # sibling had the first still been running).
        second = client.submit_specs(specs)
        settled2 = client.wait(second["job"], timeout=300)
        assert settled2["status"] == "done"
        sources = [c["source"] for c in settled2["cell_details"]]
        assert all(source in ("cache", "dedupe") for source in sources)
        # Results are byte-equal across the two paths.
        for a, b in zip(settled["cell_details"], settled2["cell_details"]):
            assert a["summary"] == b["summary"]
            assert a["key"] == b["key"]

    def test_concurrent_overlapping_jobs_simulate_each_unique_cell_once(self, harness):
        client = harness.client
        # Fresh cells (unique seed), two overlapping submissions fired
        # back-to-back without waiting: job B's overlap with job A must
        # resolve via dedupe (still in flight) or cache (already done).
        a_specs = sweep_specs(protocols=("MESI", "DeNovoSync"), seed=77)
        b_specs = sweep_specs(protocols=("DeNovoSync", "DeNovoSync0"), seed=77)
        before = harness.service.metrics.counts["cells_simulated"]
        job_a = client.submit_specs(a_specs)["job"]
        job_b = client.submit_specs(b_specs)["job"]
        status_a = client.wait(job_a, timeout=300)
        status_b = client.wait(job_b, timeout=300)
        assert status_a["status"] == "done"
        assert status_b["status"] == "done"
        unique = {cache_key_for(spec) for spec in a_specs + b_specs}
        simulated = harness.service.metrics.counts["cells_simulated"] - before
        assert simulated == len(unique) == 3
        overlap = status_b["cell_details"][0]
        assert overlap["protocol"] == "DeNovoSync"
        assert overlap["source"] in ("cache", "dedupe")

    def test_poisoned_cell_fails_alone_siblings_complete_and_cache(self, harness):
        client = harness.client
        specs = sweep_specs(protocols=("MESI", "DeNovoSync"), seed=99)
        job = client.submit_specs(specs + [poisoned_spec(seed=99)])["job"]
        status = client.wait(job, timeout=300)
        assert status["status"] == "failed"
        assert status["counts"] == {"queued": 0, "running": 0, "done": 2, "failed": 1}
        good = status["cell_details"][:2]
        bad = status["cell_details"][2]
        assert all(c["status"] == "done" for c in good)
        assert bad["status"] == "failed"
        assert bad["error"]["kind"] == "KeyError"
        assert "no-such-kernel" in bad["error"]["message"]
        assert bad["error"]["traceback"]

        # The siblings were cached despite the poisoned cell: resubmitting
        # just them is a pure cache hit.
        again = client.submit_specs(specs)["job"]
        settled = client.wait(again, timeout=60)
        assert settled["status"] == "done"
        assert [c["source"] for c in settled["cell_details"]] == ["cache", "cache"]

    def test_healthz_and_metrics_sanity(self, harness):
        submit_one_cell(harness)
        health = harness.client.healthz()
        assert health["status"] == "ok"
        assert health["workers"]["configured"] == 2
        assert not health["workers"]["broken"]
        assert health["uptime_seconds"] >= 0
        assert health["counters"]["jobs_submitted"] >= 1

        metrics = harness.client.metrics()
        for line in (
            "repro_uptime_seconds",
            "repro_queue_depth",
            "repro_cells_per_second",
            "repro_cache_hit_rate",
            "repro_workers_configured 2",
            "repro_pool_broken 0",
        ):
            assert line in metrics
        # Prometheus text shape: every sample line has a HELP and TYPE.
        samples = [
            ln for ln in metrics.splitlines() if ln and not ln.startswith("#")
        ]
        for sample in samples:
            name, value = sample.rsplit(" ", 1)
            float(value)
            assert f"# TYPE {name} " in metrics

    def test_job_listing_and_errors(self, harness):
        client = harness.client
        job = submit_one_cell(harness)
        listed = client.jobs()["jobs"]
        assert listed, "this test submitted a job"
        assert job in {j["job"] for j in listed}
        assert all({"job", "status", "cells", "counts"} <= set(j) for j in listed)

        with pytest.raises(ServiceError) as excinfo:
            client.job("j9999")
        assert excinfo.value.status == 404

        with pytest.raises(ServiceError) as excinfo:
            client.submit_cells([])
        assert excinfo.value.status == 400

        with pytest.raises(ServiceError) as excinfo:
            client.submit_cells([{"protocol": "MESI"}])  # no workload
        assert excinfo.value.status == 400
        assert "workload" in str(excinfo.value)

        for cell in unrunnable_cells():
            with pytest.raises(ServiceError) as excinfo:
                client.submit_cells([cell])
            assert excinfo.value.status == 400
            assert "malformed" in str(excinfo.value)

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), 0.0])
    def test_unusable_cell_deadline_is_rejected(self, harness, deadline):
        # NaN never fires and zero always does; JSON carries both.
        cells = [spec_to_dict(spec) for spec in sweep_specs(protocols=("MESI",))]
        with pytest.raises(ServiceError) as excinfo:
            harness.client.submit_cells(cells, cell_deadline=deadline)
        assert excinfo.value.status == 400
        assert "cell_deadline" in str(excinfo.value)


class TestWireFormat:
    def test_spec_round_trip_preserves_cache_key(self):
        for spec in sweep_specs() + [poisoned_spec()]:
            clone = spec_from_dict(spec_to_dict(spec))
            assert clone == spec
            assert cache_key_for(clone) == cache_key_for(spec)

    def test_json_round_trip_preserves_cache_key(self):
        import json

        spec = sweep_specs()[0]
        wire = json.loads(json.dumps(spec_to_dict(spec)))
        assert cache_key_for(spec_from_dict(wire)) == cache_key_for(spec)

    def test_cores_shorthand(self):
        spec = spec_from_dict(
            {"workload": ["kernel", "tatas", "counter", [120, 0.02, False], [], True],
             "protocol": "MESI", "cores": 16, "seed": 3}
        )
        assert spec.config == config_16()
        assert spec.seed == 3

    def test_malformed_cells_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            spec_from_dict({"protocol": "MESI"})
        with pytest.raises(ValueError, match="protocol"):
            spec_from_dict({"workload": ["kernel", "tatas", "counter"]})
        with pytest.raises(ValueError, match="malformed"):
            spec_from_dict(
                {"workload": ["app", "LU", 0.5], "protocol": "MESI",
                 "config": {"num_cores": "many"}}
            )
        with pytest.raises(ValueError, match="object"):
            spec_from_dict(["not", "a", "dict"])
        # Rejected on arrival, not by a worker on every retry.
        for cell in unrunnable_cells():
            with pytest.raises(ValueError, match="malformed"):
                spec_from_dict(cell)

    def test_describe_workload(self):
        assert describe_workload(("kernel", "tatas", "counter", (), (), True)) == (
            "tatas/counter"
        )
        assert describe_workload(("app", "LU", 0.5)) == "app/LU"

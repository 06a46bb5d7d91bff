"""Tests for the parallel sweep executor and the on-disk result cache.

The load-bearing property is *determinism*: a sweep run with any ``jobs``
value (or served from a warm cache) must produce byte-identical figure
output to the serial reference path.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.config import config_16, config_for_cores
from repro.harness import parallel
from repro.harness.experiments import KERNEL_PROTOCOLS, run_apps_figure, run_kernel_figure
from repro.harness.parallel import (
    ResultCache,
    RunSpec,
    app_cell,
    code_version,
    execute_spec,
    kernel_cell,
    materialize_workload,
    resolve_jobs,
    run_specs,
    run_tasks,
)
from repro.harness.report import print_figure
from repro.harness.runner import run_workload
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

SCALE = 0.02


def figure_text(figure) -> str:
    buffer = io.StringIO()
    print_figure(figure, buffer)
    return buffer.getvalue()


def figure_summaries(figure) -> list[dict]:
    return [
        {protocol: result.summary() for protocol, result in row.results.items()}
        for row in figure.rows
    ]


def _bad_utf8_pickle() -> bytes:
    """A pickled str whose first UTF-8 byte is 0xFF: unpickling raises
    ``UnicodeDecodeError``, not a ``PickleError``."""
    payload = bytearray(pickle.dumps("héllo"))
    payload[payload.index("héllo".encode())] = 0xFF
    return bytes(payload)


class TestSerialParallelEquivalence:
    def test_kernel_figure_identical_across_jobs(self):
        kwargs = dict(core_counts=(16,), scale=SCALE, seed=1, names=["counter"])
        serial = run_kernel_figure("tatas", jobs=1, **kwargs)
        parallel = run_kernel_figure("tatas", jobs=4, **kwargs)
        assert figure_summaries(serial) == figure_summaries(parallel)
        # Counters too (summary() doesn't include them).
        for s_row, p_row in zip(serial.rows, parallel.rows):
            for protocol in s_row.results:
                assert (
                    s_row.results[protocol].counters.as_dict()
                    == p_row.results[protocol].counters.as_dict()
                )
        assert figure_text(serial) == figure_text(parallel)

    def test_apps_figure_identical_across_jobs(self):
        kwargs = dict(scale=0.1, seed=2, names=["ferret"])
        serial = run_apps_figure(jobs=1, **kwargs)
        parallel = run_apps_figure(jobs=2, **kwargs)
        assert figure_summaries(serial) == figure_summaries(parallel)
        assert figure_text(serial) == figure_text(parallel)

    def test_run_specs_preserves_spec_order(self):
        config = config_16()
        specs = [
            RunSpec(kernel_cell("tatas", "counter", KernelSpec(scale=SCALE)), proto,
                    config, seed=1)
            for proto in ("DeNovoSync", "MESI", "DeNovoSync0")
        ]
        results = run_specs(specs, jobs=3)
        assert [r.protocol for r in results] == ["DeNovoSync", "MESI", "DeNovoSync0"]

    def test_execute_spec_matches_run_workload(self):
        config = config_16()
        spec = RunSpec(
            kernel_cell("tatas", "counter", KernelSpec(scale=SCALE)),
            "MESI",
            config,
            seed=5,
        )
        direct = run_workload(
            make_kernel("tatas", "counter", spec=KernelSpec(scale=SCALE)),
            "MESI",
            config,
            seed=5,
        )
        via_spec = execute_spec(spec)
        assert via_spec.summary() == direct.summary()
        assert via_spec.counters.as_dict() == direct.counters.as_dict()


class TestResultCache:
    def sweep(self, cache, jobs=1):
        return run_kernel_figure(
            "tatas",
            core_counts=(16,),
            scale=SCALE,
            seed=1,
            names=["counter"],
            jobs=jobs,
            cache=cache,
        )

    def test_warm_run_is_served_from_cache(self, tmp_path):
        from repro.harness.experiments import KERNEL_PROTOCOLS

        cold_cache = ResultCache(tmp_path)
        cold = self.sweep(cold_cache)
        assert cold_cache.hits == 0
        # one store per default protocol x one kernel
        assert cold_cache.stores == len(KERNEL_PROTOCOLS)

        warm_cache = ResultCache(tmp_path)
        warm = self.sweep(warm_cache)
        assert warm_cache.hits == len(KERNEL_PROTOCOLS)
        assert warm_cache.stores == 0
        assert figure_summaries(cold) == figure_summaries(warm)
        assert figure_text(cold) == figure_text(warm)

    def test_warm_run_identical_under_parallel_jobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        from repro.harness.experiments import KERNEL_PROTOCOLS

        cold = self.sweep(cache, jobs=2)
        warm = self.sweep(cache, jobs=2)
        assert cache.hits == len(KERNEL_PROTOCOLS)
        assert figure_summaries(cold) == figure_summaries(warm)

    def test_seed_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = config_16()
        cell = kernel_cell("tatas", "counter", KernelSpec(scale=SCALE))
        run_specs([RunSpec(cell, "MESI", config, seed=1)], cache=cache)
        run_specs([RunSpec(cell, "MESI", config, seed=2)], cache=cache)
        assert cache.hits == 0
        assert cache.stores == 2

    def test_config_is_part_of_the_key(self):
        cell = kernel_cell("tatas", "counter", KernelSpec(scale=SCALE))
        cache = ResultCache("unused")
        key16 = cache.key_for(RunSpec(cell, "MESI", config_16(), seed=1))
        key64 = cache.key_for(RunSpec(cell, "MESI", config_for_cores(64), seed=1))
        assert key16 != key64

    @pytest.mark.parametrize(
        "payload", [b"not a pickle", _bad_utf8_pickle()], ids=["garbage", "bad-utf8"]
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, payload):
        cache = ResultCache(tmp_path)
        config = config_16()
        spec = RunSpec(
            kernel_cell("tatas", "counter", KernelSpec(scale=SCALE)),
            "MESI",
            config,
            seed=1,
        )
        (result,) = run_specs([spec], cache=cache)
        path = cache._path_for(cache.key_for(spec))
        path.write_bytes(payload)
        fresh = ResultCache(tmp_path)
        assert fresh.load(spec) is None
        assert fresh.misses == 1
        # A re-run repairs the entry.
        (again,) = run_specs([spec], cache=fresh)
        assert again.summary() == result.summary()
        assert fresh.stores == 1

    def test_unwritable_cache_root_does_not_fail_the_sweep(self, tmp_path):
        # e.g. --cache-dir pointing at an existing file: the sweep's
        # results must still come back; the store is silently skipped.
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("occupied")
        cache = ResultCache(bogus)
        spec = RunSpec(
            kernel_cell("tatas", "counter", KernelSpec(scale=SCALE)),
            "MESI",
            config_16(),
            seed=1,
        )
        (result,) = run_specs([spec], cache=cache)
        assert result.cycles > 0
        assert cache.stores == 0
        assert bogus.read_text() == "occupied"

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64

    def test_interrupted_sweep_keeps_its_finished_cells(self, tmp_path, monkeypatch):
        # Ctrl-C at the third cell of a serial sweep: the two cells that
        # finished are already in the cache, so a re-run resumes there.
        cell = kernel_cell("tatas", "counter", KernelSpec(scale=SCALE))
        specs = [RunSpec(cell, "MESI", config_16(), seed=seed) for seed in (1, 2, 3, 4)]
        calls = []

        def interrupt_third(spec):
            calls.append(spec)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return execute_spec(spec)

        monkeypatch.setattr(parallel, "execute_spec", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            run_specs(specs, cache=ResultCache(tmp_path))
        fresh = ResultCache(tmp_path)
        assert [fresh.load(spec) is not None for spec in specs] == [
            True, True, False, False
        ]


class TestSpecsAndPickling:
    def test_kernel_cell_kwargs_order_insensitive(self):
        a = kernel_cell("tatas", "counter", KernelSpec(), software_backoff=True, x=1)
        b = kernel_cell("tatas", "counter", KernelSpec(), x=1, software_backoff=True)
        assert a == b

    def test_runspec_pickle_roundtrip(self):
        spec = RunSpec(app_cell("ferret", 0.1), "DeNovoSync", config_16(), seed=3)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_runresult_pickle_roundtrip(self):
        result = run_workload(
            make_kernel("tatas", "counter", spec=KernelSpec(scale=SCALE)),
            "DeNovoSync",
            config_16(),
            seed=1,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.summary() == result.summary()
        assert clone.counters.as_dict() == result.counters.as_dict()
        assert clone.traffic.breakdown() == result.traffic.breakdown()
        assert [b.as_dict() for b in clone.per_core_time] == [
            b.as_dict() for b in result.per_core_time
        ]

    def test_portable_copy_drops_live_objects(self):
        result = run_workload(
            make_kernel("tatas", "counter", spec=KernelSpec(scale=SCALE)),
            "MESI",
            config_16(),
            seed=1,
            keep_protocol=True,
        )
        assert "protocol" in result.meta
        portable = result.portable_copy()
        assert "protocol" not in portable.meta
        assert portable.cycles == result.cycles
        pickle.dumps(portable)  # must not raise

    def test_materialize_unpadded_kernel(self):
        cell = kernel_cell(
            "tatas", "counter", KernelSpec(scale=SCALE), padded=False
        )
        workload = materialize_workload(cell)
        instance = workload.build(config_16(), seed=1)
        assert instance.allocator.pad_sync_vars is False
        padded = materialize_workload(
            kernel_cell("tatas", "counter", KernelSpec(scale=SCALE))
        )
        assert padded.build(config_16(), seed=1).allocator.pad_sync_vars is True

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(ValueError, match="descriptor"):
            materialize_workload(("mystery",))

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1


class TestCliFlags:
    def test_jobs_flag_output_matches_serial(self, capsys, tmp_path):
        from repro.harness.cli import main as cli_main

        argv = ["fig3", "--cores", "16", "--scale", "0.02", "--format", "csv"]
        assert cli_main(argv + ["--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            cli_main(argv + ["--jobs", "2", "--cache-dir", str(tmp_path / "rc")]) == 0
        )
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        # Warm re-run: served from cache, still byte-identical.
        assert (
            cli_main(argv + ["--jobs", "2", "--cache-dir", str(tmp_path / "rc")]) == 0
        )
        assert capsys.readouterr().out == serial_out


# -- a worker killed mid-sweep --------------------------------------------------
#
# ``run_tasks(jobs>1)`` runs on the PoolSupervisor: a SIGKILLed or
# OOM-killed worker costs one re-submission of the cells it took down, not
# the sweep.  The kill comes from inside: the task function kills its own
# worker on the first call anywhere (an ``O_EXCL`` sentinel file records,
# across processes, that it already happened), so the tests need no timing.
# The re-breaking shim puts the old bare ``ProcessPoolExecutor`` fan-out
# back and shows the same kill failing the whole sweep.

SWEEP = dict(core_counts=(16,), scale=0.02, seed=1, names=["counter", "single Q"])
CELLS = 2 * len(KERNEL_PROTOCOLS)


def first_call_kills_its_worker(sentinel: str, fn, arg):
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return fn(arg)
    os.kill(os.getpid(), signal.SIGKILL)


def simulate(spec):
    """``execute_spec`` under a name the monkeypatch below leaves alone
    (a pickled function must still be its module's attribute)."""
    return execute_spec(spec)


def square(value):
    return value * value


def square_or_die(value):
    """Kills its worker on every attempt for a negative value — late
    enough that its siblings have finished, so the kills charge only it."""
    if value < 0:
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def legacy_run_tasks(fn, calls, *, jobs=1, return_exceptions=False, on_result=None):
    """The bare-pool fan-out parallel sweeps used before the supervisor
    (which reported no result before the whole sweep returned)."""
    calls = list(calls)
    slots: list = [None] * len(calls)
    with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
        futures = [pool.submit(fn, call) for call in calls]
        for index, future in enumerate(futures):
            try:
                slots[index] = future.result()
            except Exception as exc:
                slots[index] = exc
    if not return_exceptions:
        for slot in slots:
            if isinstance(slot, Exception):
                raise slot
    return slots


def kill_first_worker(monkeypatch, tmp_path):
    """Swap the sweep's cell function for one whose first call kills its
    worker; returns the sentinel path that proves the kill happened."""
    sentinel = tmp_path / "worker-killed"
    monkeypatch.setattr(
        parallel, "execute_spec",
        partial(first_call_kills_its_worker, str(sentinel), simulate),
    )
    return sentinel


class TestWorkerDeath:
    def test_kernel_figure_sweep_survives_a_killed_worker(self, tmp_path, monkeypatch):
        serial = run_kernel_figure("tatas", jobs=1, **SWEEP)
        sentinel = kill_first_worker(monkeypatch, tmp_path)

        cache = ResultCache(tmp_path / "cache")
        survived = run_kernel_figure("tatas", jobs=2, cache=cache, **SWEEP)
        assert sentinel.exists(), "no worker was killed"
        # Every cell settled with a result identical to the serial sweep's...
        assert figure_summaries(survived) == figure_summaries(serial)
        assert figure_text(survived) == figure_text(serial)
        # ...and reached the cache: a fresh handle hits every cell.
        assert cache.stores == CELLS
        warm = ResultCache(tmp_path / "cache")
        again = run_kernel_figure("tatas", jobs=2, cache=warm, **SWEEP)
        assert (warm.hits, warm.misses, warm.stores) == (CELLS, 0, 0)
        assert figure_text(again) == figure_text(serial)

    def test_shim_bare_pool_loses_the_sweep(self, tmp_path, monkeypatch):
        sentinel = kill_first_worker(monkeypatch, tmp_path)
        monkeypatch.setattr(parallel, "run_tasks", legacy_run_tasks)
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(BrokenProcessPool):
            run_kernel_figure("tatas", jobs=2, cache=cache, **SWEEP)
        assert sentinel.exists()
        assert cache.stores < CELLS  # the cells the break took down are lost

    def test_run_tasks_resubmits_the_lost_calls(self, tmp_path):
        fn = partial(first_call_kills_its_worker, str(tmp_path / "killed"), square)
        assert run_tasks(fn, range(6), jobs=2) == [0, 1, 4, 9, 16, 25]
        assert (tmp_path / "killed").exists()

    def test_a_call_that_always_kills_its_worker_fails_alone(self):
        slots = run_tasks(square_or_die, [2, -1, 3], jobs=2, return_exceptions=True)
        assert slots[0] == 4 and slots[2] == 9
        assert isinstance(slots[1], BrokenProcessPool)
        assert "mid-execution" in str(slots[1])

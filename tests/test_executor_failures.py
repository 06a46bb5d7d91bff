"""Regression tests for the sweep-executor bugfix sweep.

Each fixed bug gets two tests: one asserting the fixed behavior, and one
that *re-breaks* the bug behind a shim (monkeypatching the legacy
behavior back in) and shows the failure mode the fix removed — so a
future revert trips loudly.

The bugs (all in :mod:`repro.harness.parallel`):

1. ``ResultCache.store`` caught only ``OSError``; an unpicklable
   ``RunResult`` crashed a completed sweep and leaked the mkstemp file.
2. A single raising cell in ``run_specs``/``run_tasks`` propagated out of
   ``future.result()`` and discarded every completed sibling (nothing
   reached the cache).
3. ``code_version()`` memoized per process, so a persistent server served
   stale cache keys after a source edit.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.config import config_16
from repro.harness import parallel
from repro.harness.parallel import (
    CellError,
    ResultCache,
    RunSpec,
    cache_key_for,
    code_version,
    kernel_cell,
    resolve_jobs,
    run_specs,
    run_specs_outcomes,
    run_tasks,
)
from repro.harness.runner import run_workload
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

SCALE = 0.02


def good_spec(seed: int) -> RunSpec:
    return RunSpec(
        kernel_cell("tatas", "counter", KernelSpec(scale=SCALE)),
        "MESI",
        config_16(),
        seed=seed,
    )


def poisoned_spec() -> RunSpec:
    """Materialization raises ``KeyError`` in the worker (unknown kernel)."""
    return RunSpec(
        kernel_cell("tatas", "no-such-kernel", KernelSpec(scale=SCALE)),
        "MESI",
        config_16(),
        seed=1,
    )


def small_result():
    return run_workload(
        make_kernel("tatas", "counter", spec=KernelSpec(scale=SCALE)),
        "MESI",
        config_16(),
        seed=1,
    )


def tmp_leftovers(root) -> list[str]:
    return [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(root)
        for name in names
        if name.endswith(".tmp")
    ]


# -- bug 1: unpicklable results must not fail (or litter) the cache -----------


class TestStoreRobustness:
    def test_unpicklable_result_is_skipped_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = small_result()
        result.meta["poison"] = lambda: None  # lambdas do not pickle
        cache.store(good_spec(seed=1), result)  # must not raise
        assert cache.stores == 0
        assert cache.load(good_spec(seed=1)) is None
        assert tmp_leftovers(tmp_path) == []

    def test_unpicklable_tuple_payload_is_skipped(self, tmp_path):
        # pickle raises a bare TypeError (not PicklingError) for some
        # builtin types, e.g. file handles.
        cache = ResultCache(tmp_path)
        result = small_result()
        with open(os.devnull) as handle:
            result.meta["poison"] = handle
            cache.store(good_spec(seed=1), result)
        assert cache.stores == 0
        assert tmp_leftovers(tmp_path) == []

    def test_sweep_with_unpicklable_result_still_returns(self, tmp_path, monkeypatch):
        # End to end: the sweep's simulations complete and the results come
        # back even though none of them can be cached.
        cache = ResultCache(tmp_path)
        original = parallel.execute_spec

        def poisoning_execute(spec):
            result = original(spec)
            result.meta["poison"] = lambda: None
            return result

        monkeypatch.setattr(parallel, "execute_spec", poisoning_execute)
        (result,) = run_specs([good_spec(seed=2)], cache=cache)
        assert result.cycles > 0
        assert cache.stores == 0
        assert tmp_leftovers(tmp_path) == []

    def test_shim_legacy_store_crashed_on_unpicklable_result(self, tmp_path, monkeypatch):
        # Re-break the bug: narrow the caught errors back to OSError alone
        # (the pre-fix behavior) and the same payload kills the store.
        monkeypatch.setattr(ResultCache, "_STORE_ERRORS", (OSError,))
        cache = ResultCache(tmp_path)
        result = small_result()
        result.meta["poison"] = lambda: None
        # (pickle reports a *local* lambda as AttributeError rather than
        # PicklingError — one more reason catching OSError alone was wrong.)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.store(good_spec(seed=1), result)
        # The temp-file cleanup is structural (finally), so even the
        # re-broken store no longer litters — that half of the bug cannot
        # be reintroduced by narrowing the exception list.
        assert tmp_leftovers(tmp_path) == []


# -- bug 2: one poisoned cell must not lose its siblings ----------------------


def _run_tasks_probe(value):
    """Module-level (hence picklable) task fn: raises for the poison value."""
    if value < 0:
        raise ValueError(f"poisoned call {value}")
    return value * value


class TestFailureIsolation:
    def test_poisoned_cell_keeps_siblings_in_cache(self, tmp_path):
        # 1 poisoned cell among 8: the sweep still raises, but the other 7
        # results must already be in the cache when it does.
        cache = ResultCache(tmp_path)
        specs = [good_spec(seed=s) for s in range(1, 8)]
        specs.insert(3, poisoned_spec())
        with pytest.raises(KeyError, match="no-such-kernel"):
            run_specs(specs, jobs=2, cache=cache)
        assert cache.stores == 7
        warm = ResultCache(tmp_path)
        for spec in specs:
            if spec.workload[2] == "counter":
                assert warm.load(spec) is not None
        assert warm.hits == 7

    def test_outcomes_capture_errors_structurally(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [good_spec(seed=1), poisoned_spec(), good_spec(seed=2)]
        outcomes = run_specs_outcomes(specs, jobs=2, cache=cache)
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert isinstance(failed.error, CellError)
        assert failed.error.kind == "KeyError"
        assert "no-such-kernel" in failed.error.message
        assert "KeyError" in failed.error.traceback
        assert failed.result is None
        assert failed.error.as_dict().keys() == {"kind", "message", "traceback"}
        # Serial path captures identically (minus the pool round trip).
        serial = run_specs_outcomes([poisoned_spec()], jobs=1)
        assert serial[0].error is not None
        assert serial[0].error.kind == "KeyError"

    def test_outcomes_record_cache_source(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_specs_outcomes([good_spec(seed=1)], cache=cache)
        (outcome,) = run_specs_outcomes([good_spec(seed=1)], cache=cache)
        assert outcome.ok and outcome.source == "cache"

    def test_reraise_notes_surviving_siblings(self):
        specs = [good_spec(seed=1), poisoned_spec()]
        with pytest.raises(KeyError) as excinfo:
            run_specs(specs, jobs=1)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("1/2 sibling cells completed" in note for note in notes)

    def test_run_tasks_completes_siblings_before_raising(self):
        calls = []

        def probe(value):
            calls.append(value)
            if value == 2:
                raise ValueError("poisoned call")
            return value

        with pytest.raises(ValueError, match="poisoned call"):
            run_tasks(probe, [1, 2, 3, 4], jobs=1)
        assert calls == [1, 2, 3, 4]  # every sibling ran to completion

    def test_run_tasks_return_exceptions(self):
        slots = run_tasks(
            _run_tasks_probe, [3, -1, 4], jobs=2, return_exceptions=True
        )
        assert slots[0] == 9 and slots[2] == 16
        assert isinstance(slots[1], ValueError)

    def test_shim_legacy_run_specs_lost_siblings(self, tmp_path, monkeypatch):
        # Re-break the bug: the pre-fix executor bailed on the first
        # future.result() raise, before any cache write.
        def legacy_run_specs(specs, *, jobs=1, cache=None):
            specs = list(specs)
            results = [parallel.execute_spec(spec) for spec in specs]
            if cache is not None:
                for spec, result in zip(specs, results):
                    cache.store(spec, result)
            return results

        monkeypatch.setattr(parallel, "run_specs", legacy_run_specs)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyError):
            parallel.run_specs(
                [good_spec(seed=1), poisoned_spec()], jobs=1, cache=cache
            )
        # The legacy path loses the completed sibling — exactly what
        # test_poisoned_cell_keeps_siblings_in_cache guards against.
        assert cache.stores == 0


# -- bug 3: code_version must notice source edits in-process ------------------


class TestCodeVersionFingerprint:
    @pytest.fixture
    def fake_tree(self, tmp_path, monkeypatch):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "mod.py").write_bytes(b"x = 1\n")
        monkeypatch.setattr(parallel, "_source_root", lambda: root)
        monkeypatch.setattr(parallel, "_code_version_memo", None)
        yield root
        # Leave the real memo invalidated so later callers recompute
        # against the real tree.
        parallel._code_version_memo = None

    def test_source_edit_changes_key_in_process(self, fake_tree):
        spec = good_spec(seed=1)
        version_before = code_version()
        key_before = cache_key_for(spec)
        (fake_tree / "mod.py").write_bytes(b"x = 2\n")
        os.utime(fake_tree / "mod.py", ns=(1, 1))  # force a distinct mtime
        assert code_version() != version_before
        assert cache_key_for(spec) != key_before

    def test_new_and_deleted_files_change_the_version(self, fake_tree):
        version_one = code_version()
        (fake_tree / "extra.py").write_bytes(b"y = 1\n")
        version_two = code_version()
        assert version_two != version_one
        (fake_tree / "extra.py").unlink()
        assert code_version() == version_one  # content-addressed, not path-history

    def test_unchanged_tree_skips_the_rehash(self, fake_tree, monkeypatch):
        code_version()
        calls = []
        original = parallel._hash_source_tree

        def counting_hash(root):
            calls.append(root)
            return original(root)

        monkeypatch.setattr(parallel, "_hash_source_tree", counting_hash)
        assert code_version() == code_version()
        assert calls == []  # fingerprint unchanged -> no content rehash

    def test_shim_legacy_memo_served_stale_keys(self, fake_tree, monkeypatch):
        # Re-break the bug: freeze the fingerprint (the pre-fix per-process
        # memo is equivalent to a fingerprint that never changes) and the
        # edit goes unnoticed — the stale-key failure mode of a long-lived
        # server.
        version_before = code_version()
        monkeypatch.setattr(
            parallel, "_source_fingerprint", lambda root: ("frozen",)
        )
        code_version()  # memoize under the frozen fingerprint
        (fake_tree / "mod.py").write_bytes(b"x = 3\n")
        os.utime(fake_tree / "mod.py", ns=(2, 2))
        assert code_version() == version_before  # stale!


# -- resolve_jobs: unknown core count -------------------------------------------


class TestResolveJobsFallback:
    def test_unknown_cpu_count_means_one_job(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(None) == 1

    def test_result_is_always_positive(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(-5) == 1

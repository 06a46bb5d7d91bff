"""Fault-injection harness tests: plans, determinism, chaos differential.

The load-bearing assertion is the chaos differential: for workloads whose
final memory state is interleaving-independent, every seeded perturbation
(delay jitter, bounded reordering, eviction storms) must terminate in a
final backing store byte-identical to the unperturbed run, with full
runtime invariant checking armed — across every chaos-capable protocol
the registry advertises.
"""

import pickle

import pytest

from repro.config import config_for_cores
from repro.harness.chaos import (
    CHAOS_PROTOCOLS,
    ChaosCell,
    default_fault_plan,
    diff_memory,
    run_chaos_sweep,
)
from repro.harness.runner import run_workload
from repro.noc.faults import FaultInjector, FaultPlan
from repro.protocols.mesi import MesiProtocol
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel


def _counter(scale=0.02):
    return make_kernel("tatas", "counter", spec=KernelSpec(scale=scale))


class TestFaultPlan:
    def test_defaults_are_inactive(self):
        assert not FaultPlan().active

    @pytest.mark.parametrize(
        "overrides",
        [
            {"delay_jitter": 3},
            {"reorder_prob": 0.1},
            {"evict_period": 100},
            {"scripted_evictions": ((10, 0, 0),)},
        ],
    )
    def test_any_knob_activates(self, overrides):
        assert FaultPlan(**overrides).active

    @pytest.mark.parametrize(
        "overrides",
        [
            {"reorder_prob": 1.5},
            {"reorder_prob": -0.1},
            {"delay_jitter": -1},
            {"evict_period": -5},
            {"reorder_delay": 0},
        ],
    )
    def test_invalid_plans_rejected(self, overrides):
        with pytest.raises(ValueError):
            FaultPlan(**overrides)


class TestFaultInjector:
    def test_inactive_plan_is_not_wrapped(self):
        result = run_workload(
            _counter(), "MESI", config_for_cores(4), fault_plan=FaultPlan()
        )
        assert "fault_injector" not in result.meta

    def test_injection_is_deterministic(self):
        """Same plan, same workload -> identical run, byte for byte."""
        plan = default_fault_plan(seed=7)
        runs = [
            run_workload(
                _counter(), "MESI", config_for_cores(4),
                fault_plan=plan, keep_protocol=True,
            )
            for _ in range(2)
        ]
        assert runs[0].cycles == runs[1].cycles
        snapshots = [r.meta["protocol"].memory.snapshot() for r in runs]
        assert snapshots[0] == snapshots[1]
        for attr in ("injected_delay", "deferrals", "forced_evictions"):
            assert getattr(runs[0].meta["fault_injector"], attr) == getattr(
                runs[1].meta["fault_injector"], attr
            )

    def test_portable_copy_of_a_faulted_run_pickles(self):
        result = run_workload(
            _counter(), "MESI", config_for_cores(4),
            fault_plan=FaultPlan(seed=1, delay_jitter=4),
        )
        copy = pickle.loads(pickle.dumps(result.portable_copy()))
        assert "fault_injector" not in copy.meta
        assert copy.summary() == result.summary()

    def test_perturbations_actually_fire(self):
        plan = FaultPlan(
            seed=3, delay_jitter=5, reorder_prob=0.2, evict_period=150,
            evict_lines=2,
        )
        result = run_workload(
            _counter(0.05), "MESI", config_for_cores(4), fault_plan=plan
        )
        injector = result.meta["fault_injector"]
        assert injector.injected_delay > 0
        assert injector.deferrals > 0
        assert injector.forced_evictions > 0

    def test_wrapper_chain_with_tracing_and_full_invariants(self):
        """Tracing + fault injection + full checking compose: the runner's
        final audit and the state checker both reach the real protocol
        through the two-wrapper chain."""
        config = config_for_cores(4, invariant_level="full")
        result = run_workload(
            _counter(), "DeNovoSync", config,
            fault_plan=default_fault_plan(seed=2), trace=True,
            keep_protocol=True,
        )
        assert len(result.meta["trace"]) > 0
        assert result.meta["protocol"].invariant_violations() == []


class TestDeferredReissue:
    def test_reissue_of_a_deferred_access_passes_admission(self):
        """A deferral holds no directory reservation, so its re-issue waits
        for MESI's busy line like an unperturbed load arriving then; a real
        retry after it keeps its ticket."""
        mesi = MesiProtocol(config_for_cores(4))
        injector = FaultInjector(mesi, FaultPlan(reorder_prob=1.0, reorder_delay=1))
        mesi.now = 100
        mesi.store(0, 0, 1, sync=True)  # line 0's entry is busy until 128
        injector.now = 101
        deferred = injector.load(2, 0)
        assert (deferred.retry, deferred.latency) == (True, 1)
        injector.now = 102
        reissue = injector.load(2, 0, ticketed=True)
        assert (reissue.retry, reissue.latency) == (True, 128 - 102)
        injector.now = 128
        served = injector.load(2, 0, ticketed=True)
        assert not served.retry and served.value == 1
        assert mesi.counters.get("directory_retries") == 1
        assert injector.deferrals == 1


class TestDiffMemory:
    def test_reports_differing_and_missing_words(self):
        diffs = diff_memory({0: 1, 4: 2}, {0: 1, 4: 3, 8: 9})
        assert any("word 4" in d for d in diffs)
        assert any("word 8" in d for d in diffs)

    def test_identical_snapshots_are_clean(self):
        assert diff_memory({0: 1}, {0: 1}) == []

    def test_cell_verdict(self):
        cell = ChaosCell("w", "MESI", 1, 10, 12, "nothing")
        assert cell.ok and "[ok]" in cell.describe()
        cell.mismatches.append("word 0: baseline 1 != perturbed 2")
        assert not cell.ok and "[FAIL]" in cell.describe()


class TestChaosDifferential:
    """Acceptance: >= 3 seeds x every chaos-capable protocol,
    byte-identical final memory."""

    def test_sweep_converges_across_protocols_and_seeds(self):
        cells = run_chaos_sweep(
            protocols=CHAOS_PROTOCOLS, seeds=(1, 2, 3), num_cores=4,
            scale=0.02,
        )
        # 3 workloads x protocols x 3 seeds
        assert len(cells) == 3 * len(CHAOS_PROTOCOLS) * 3
        bad = [cell.describe() for cell in cells if not cell.ok]
        assert not bad, "\n".join(bad)
        assert {cell.protocol for cell in cells} == set(CHAOS_PROTOCOLS)
        assert {cell.seed for cell in cells} == {1, 2, 3}
        # The sweep must actually have perturbed something.
        assert any("0 forced evictions" not in cell.injected for cell in cells)

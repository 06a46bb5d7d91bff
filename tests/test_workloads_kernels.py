"""Integration tests: all 24 synchronization kernels run to completion
under every protocol, and their statistics are self-consistent."""

import pytest

from repro.config import config_16
from repro.harness.runner import run_workload
from repro.protocols import protocol_names
from repro.stats.timeparts import TimeComponent
from repro.workloads.base import KernelSpec
from repro.workloads.registry import all_kernel_ids, kernel_names, make_kernel

TINY = KernelSpec(iterations=3, scale=1.0)


class TestRegistryShape:
    def test_twenty_four_kernels(self):
        assert len(all_kernel_ids()) == 24

    def test_figure_kernel_sets(self):
        assert kernel_names("tatas") == kernel_names("array")
        assert len(kernel_names("tatas")) == 6
        assert len(kernel_names("nonblocking")) == 6
        assert len(kernel_names("barrier")) == 6

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            kernel_names("nope")
        with pytest.raises(ValueError):
            make_kernel("nope", "counter")

    def test_barrier_names_include_unbalanced(self):
        names = kernel_names("barrier")
        assert "tree (UB)" in names and "central" in names


@pytest.mark.parametrize("figure,name", all_kernel_ids())
@pytest.mark.parametrize("protocol", list(protocol_names()))
class TestKernelRuns:
    def test_runs_and_accounts(self, figure, name, protocol):
        spec = KernelSpec(iterations=3, scale=1.0)
        workload = make_kernel(figure, name, spec=spec)
        result = run_workload(workload, protocol, config_16(), seed=3)
        assert result.cycles > 0
        assert result.num_cores == 16
        assert len(result.per_core_time) == 16
        # Dummy compute windows landed in the non-synch component.
        assert result.component_cycles(TimeComponent.NON_SYNCH) > 0
        # Some traffic flowed.
        assert result.total_traffic > 0
        # DeNovo never sends invalidations; the MESI family never sends
        # SYNCH (the paper does not split MESI traffic by access type).
        breakdown = result.traffic_breakdown()
        if protocol.startswith("MESI"):
            assert breakdown["SYNCH"] == 0
        else:
            assert breakdown["Inv"] == 0


class TestKernelSemantics:
    @pytest.mark.parametrize("protocol", list(protocol_names()))
    def test_fai_counter_exact_total(self, protocol):
        workload = make_kernel("nonblocking", "FAI counter", spec=TINY)
        result = run_workload(
            workload, protocol, config_16(), seed=3, keep_protocol=True
        )
        final = result.meta["protocol"].memory.read(workload.counter.addr)
        assert final == 16 * 3

    @pytest.mark.parametrize("figure", ["tatas", "array"])
    @pytest.mark.parametrize("protocol", list(protocol_names()))
    def test_locked_counter_exact_total(self, figure, protocol):
        workload = make_kernel(figure, "counter", spec=TINY)
        result = run_workload(
            workload, protocol, config_16(), seed=3, keep_protocol=True
        )
        final = result.meta["protocol"].memory.read(workload.counter.addr)
        assert final == 16 * 3

    def test_hw_backoff_only_under_denovosync(self):
        spec = KernelSpec(iterations=5, scale=1.0)
        for protocol in ("MESI", "DeNovoSync0"):
            workload = make_kernel("tatas", "counter", spec=spec)
            result = run_workload(workload, protocol, config_16(), seed=3)
            assert result.component_cycles(TimeComponent.HW_BACKOFF) == 0

    def test_sw_backoff_present_in_nonblocking(self):
        spec = KernelSpec(iterations=8, scale=1.0)
        workload = make_kernel("nonblocking", "M-S queue", spec=spec)
        result = run_workload(workload, "MESI", config_16(), seed=3)
        # Contended CAS loops back off at least occasionally.
        assert result.component_cycles(TimeComponent.SW_BACKOFF) >= 0

    def test_scaled_iterations(self):
        spec = KernelSpec(iterations=100, scale=0.07)
        assert spec.scaled_iterations() == 7
        assert KernelSpec(iterations=100, scale=0.0001).scaled_iterations() == 1

    def test_unknown_lock_type_rejected(self):
        from repro.workloads.kernels_lock import LockedCounterKernel

        with pytest.raises(ValueError):
            LockedCounterKernel(lock_type="clh")

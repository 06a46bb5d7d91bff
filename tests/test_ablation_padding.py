"""Tests for the lock-padding ablation (section 7.1.1)."""

import pytest

from repro.harness.experiments import run_padding_ablation


@pytest.fixture(scope="module")
def padding_results():
    return run_padding_ablation(cores=16, scale=0.03)


class TestPaddingAblation:
    def test_both_variants_present(self, padding_results):
        assert set(padding_results) == {"padded", "unpadded"}
        for result in padding_results.values():
            assert len(result.rows) == 6

    def test_unpadded_effects_per_structure(self, padding_results):
        """Unpadding moves MESI where line sharing matters: the two-lock
        queue (head and tail locks false-share a line) and the kernels
        whose spinners get disturbed by co-located data writes (counter,
        large CS) get slower; DeNovo's word-granularity state is immune
        everywhere (the paper's central point for this study)."""
        by_name = {
            row.workload: (padded, unpadded)
            for row, padded, unpadded in (
                (p, p.results, u.results)
                for p, u in zip(
                    padding_results["padded"].rows,
                    padding_results["unpadded"].rows,
                )
            )
        }
        for name in ("double Q", "counter", "large CS"):
            padded, unpadded = by_name[name]
            assert unpadded["MESI"].cycles > padded["MESI"].cycles * 0.98

    def test_denovo_immune_to_padding(self, padding_results):
        """Word-granularity coherence: DeNovo barely moves either way."""
        for padded_row, unpadded_row in zip(
            padding_results["padded"].rows, padding_results["unpadded"].rows
        ):
            ratio = (
                unpadded_row.results["DeNovoSync"].cycles
                / padded_row.results["DeNovoSync"].cycles
            )
            assert 0.9 < ratio < 1.1

    def test_padding_policy_actually_changes_layout(self):
        """An unpadded kernel cell really co-locates sync variables."""
        from repro.config import config_16
        from repro.harness.parallel import kernel_cell, materialize_workload
        from repro.workloads.base import KernelSpec

        workload = materialize_workload(
            kernel_cell("tatas", "counter", KernelSpec(scale=0.02), padded=False)
        )
        instance = workload.build(config_16(), seed=1)
        amap = instance.allocator.amap
        # The lock now shares a cache line with its neighbouring data.
        lock_alloc = next(
            a for a in instance.allocator.allocations if "lock" in a.region.name
        )
        all_lines = [
            amap.line_of(a.base)
            for a in instance.allocator.allocations
            if a is not lock_alloc
        ]
        assert amap.line_of(lock_alloc.base) in all_lines

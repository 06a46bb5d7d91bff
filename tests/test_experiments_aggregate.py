"""Tests for the kernel-figure runner's options."""

from repro.harness.experiments import run_kernel_figure


class TestRunKernelFigureOptions:
    def test_names_filter(self):
        fig = run_kernel_figure(
            "tatas", core_counts=(16,), scale=0.03, names=["counter", "stack"]
        )
        assert [r.workload for r in fig.rows] == ["counter", "stack"]

    def test_protocol_subset(self):
        fig = run_kernel_figure(
            "tatas",
            core_counts=(16,),
            scale=0.02,
            names=["counter"],
            protocols=("MESI", "DeNovoSync"),
        )
        assert set(fig.rows[0].results) == {"MESI", "DeNovoSync"}

    def test_mcs_family_label(self):
        fig = run_kernel_figure(
            "mcs",
            core_counts=(16,),
            scale=0.02,
            names=["counter"],
            protocols=("MESI",),
        )
        assert "MCS" in fig.figure

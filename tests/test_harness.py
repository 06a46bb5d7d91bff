"""Tests for the experiment harness, reporting, and CLI."""

import io

import pytest

from repro.config import config_16
from repro.harness import experiments
from repro.harness.cli import main as cli_main
from repro.harness.experiments import (
    APP_PROTOCOLS,
    KERNEL_PROTOCOLS,
    run_apps_figure,
    run_eqcheck_ablation,
    run_kernel_figure,
    run_lock_design_study,
    run_padding_ablation,
    run_rfo_study,
    run_scaling_study,
    run_selfinv_ablation,
    run_sensitivity_study,
    run_signatures_study,
    run_sw_backoff_ablation,
)
from repro.harness.parallel import ResultCache, cache_key_for
from repro.harness.report import figure_summary, print_figure
from repro.harness.runner import SimulationStuck, run_workload
from repro.stats.collector import normalize_to
from repro.workloads.base import KernelSpec, Workload, WorkloadInstance
from repro.workloads.registry import make_kernel

SCALE = 0.03


@pytest.fixture(scope="module")
def fig3_16():
    return run_kernel_figure("tatas", core_counts=(16,), scale=SCALE, seed=1)


class TestKernelFigure:
    def test_row_per_kernel(self, fig3_16):
        assert len(fig3_16.rows) == 6
        assert {row.workload for row in fig3_16.rows} == {
            "single Q", "double Q", "stack", "heap", "counter", "large CS",
        }

    def test_default_protocol_set_per_row(self, fig3_16):
        from repro.harness.experiments import KERNEL_PROTOCOLS

        for row in fig3_16.rows:
            assert set(row.results) == set(KERNEL_PROTOCOLS)

    def test_relative_metrics(self, fig3_16):
        row = fig3_16.rows[0]
        assert row.rel_time("MESI") == 1.0
        assert row.rel_traffic("MESI") == 1.0
        assert row.rel_time("DeNovoSync") > 0

    def test_denovo_saves_traffic_on_tatas(self, fig3_16):
        """The paper's headline: large traffic savings on TATAS kernels."""
        for row in fig3_16.rows:
            assert row.rel_traffic("DeNovoSync") < 1.0


class TestAppsFigure:
    def test_rows_and_cores(self):
        result = run_apps_figure(scale=0.05, seed=2, names=["FFT", "ferret"])
        assert [row.workload for row in result.rows] == ["FFT", "ferret"]
        assert result.rows[0].num_cores == 64
        assert result.rows[1].num_cores == 16
        from repro.harness.experiments import APP_PROTOCOLS

        for row in result.rows:
            assert set(row.results) == set(APP_PROTOCOLS)


class TestReport:
    def test_print_figure_contains_rows(self, fig3_16):
        buffer = io.StringIO()
        print_figure(fig3_16, buffer)
        text = buffer.getvalue()
        assert "Figure 3" in text
        for name in ("single Q", "large CS"):
            assert name in text
        for label in (" M ", "DS0", " DS "):
            assert label.strip() in text

    def test_summary_averages(self, fig3_16):
        summary = figure_summary(fig3_16)
        assert summary["MESI"]["avg_rel_time"] == pytest.approx(1.0)
        assert 0 < summary["DeNovoSync"]["avg_rel_time"] < 2.0


class TestAblations:
    @pytest.mark.parametrize(
        "run_figure, run_ablation, hits",
        [
            (
                lambda cache: run_kernel_figure(
                    "tatas", core_counts=(16,), scale=SCALE, cache=cache
                ),
                lambda cache: run_sw_backoff_ablation(
                    cores=16, scale=SCALE, cache=cache
                ),
                6 * len(KERNEL_PROTOCOLS),
            ),
            (
                lambda cache: run_kernel_figure(
                    "nonblocking", core_counts=(16,), scale=SCALE, cache=cache,
                    names=["Herlihy stack", "Herlihy heap"],
                ),
                lambda cache: run_eqcheck_ablation(cores=16, scale=SCALE, cache=cache),
                2 * len(KERNEL_PROTOCOLS),
            ),
            (
                lambda cache: run_apps_figure(scale=0.02, names=["water"], cache=cache),
                lambda cache: run_selfinv_ablation(app="water", scale=0.02, cache=cache),
                len(APP_PROTOCOLS),
            ),
        ],
        ids=["sw-backoff", "eqchecks", "selfinv"],
    )
    def test_baseline_variant_is_the_figures_cells(
        self, tmp_path, run_figure, run_ablation, hits
    ):
        """An ablation's baseline variant reuses its figure's cache entries
        (same seed, no kernel argument), so ``all`` simulates them once."""
        cache = ResultCache(tmp_path)
        run_figure(cache)
        assert cache.hits == 0
        run_ablation(cache)
        assert cache.hits == hits

    @pytest.mark.parametrize(
        "run_study, figures, cells, shared",
        [
            (run_lock_design_study, ["tatas", "array"], 60, 40),
            (run_rfo_study, ["tatas", "array", "nonblocking"], 30, 20),
            (run_signatures_study, ["array", "apps"], 9, 6),
            (run_scaling_study, ["tatas", "barrier"], 18, 12),
            (run_sensitivity_study, ["tatas", "nonblocking"], 44, 6),
        ],
        ids=["lock-design", "rfo", "signatures", "scaling", "sensitivity"],
    )
    def test_extension_study_reuses_the_figures_cells(
        self, monkeypatch, run_study, figures, cells, shared
    ):
        """Where an extension study's cell is a figure's (same inputs at
        the CLI's common --scale, --app-scale and --seed), it has the
        figure's cache key, so ``all`` simulates it once.  Only the cache
        keys are computed; nothing is simulated."""
        keys: list[str] = []

        def record(specs, jobs=1, cache=None):
            specs = list(specs)
            keys.extend(cache_key_for(spec) for spec in specs)
            return [None] * len(specs)

        monkeypatch.setattr(experiments, "run_specs", record)
        for family in figures:
            if family == "apps":
                run_apps_figure()
            else:
                run_kernel_figure(family, scale=SCALE)
        figure_keys = set(keys)
        keys.clear()
        run_study(scale=SCALE)
        assert len(keys) == len(set(keys)) == cells
        assert len(figure_keys.intersection(keys)) == shared

    @pytest.mark.parametrize(
        "run_target",
        [
            run_padding_ablation, run_sw_backoff_ablation, run_eqcheck_ablation,
            run_selfinv_ablation, run_lock_design_study, run_rfo_study,
            run_signatures_study, run_scaling_study, run_sensitivity_study,
        ],
        ids=lambda run_target: run_target.__name__,
    )
    def test_multi_variant_target_is_one_sweep(self, monkeypatch, run_target):
        """Every variant's cells go to ``run_specs`` in one call, so with
        ``--jobs N`` a target starts one worker pool, and every cell's
        result is filed under its row.  Nothing is simulated."""
        calls: list[int] = []

        def record(specs, jobs=1, cache=None):
            specs = list(specs)
            calls.append(len(specs))
            return [None] * len(specs)

        monkeypatch.setattr(experiments, "run_specs", record)
        figures = run_target(scale=SCALE)
        assert len(figures) > 1
        filed = sum(
            len(row.results) for figure in figures.values() for row in figure.rows
        )
        assert calls == [filed]

    def test_sw_backoff_ablation_labels(self):
        results = run_sw_backoff_ablation(cores=16, scale=SCALE)
        assert set(results) == {"no backoff", "sw backoff"}

    def test_eqcheck_ablation_runs_both_variants(self):
        results = run_eqcheck_ablation(cores=16, scale=SCALE)
        assert set(results) == {"original checks", "reduced checks"}
        for result in results.values():
            assert {row.workload for row in result.rows} == {
                "Herlihy stack", "Herlihy heap",
            }

    def test_eqchecks_cost_denovo_more(self):
        """Extra pointer re-reads are near-free under MESI but registration
        misses under DeNovo (section 7.1.3)."""
        results = run_eqcheck_ablation(cores=16, scale=0.05)

        def denovo_time(result):
            return sum(
                row.results["DeNovoSync"].cycles for row in result.rows
            )

        assert denovo_time(results["reduced checks"]) < denovo_time(
            results["original checks"]
        )


class TestRunner:
    def test_deadlock_detection(self):
        from repro.cpu.isa import WaitLoad
        from repro.mem.address import AddressMap
        from repro.mem.regions import RegionAllocator

        class Deadlock(Workload):
            name = "deadlock"

            def build(self, config, *, seed=0):
                allocator = RegionAllocator(AddressMap(config))
                flag = allocator.alloc_sync("flag").base

                def waiter():
                    yield WaitLoad(flag, lambda v: v == 1, sync=True)

                programs = [waiter()]
                from repro.cpu.isa import Compute

                def idle():
                    yield Compute(1)

                programs += [idle() for _ in range(config.num_cores - 1)]
                return WorkloadInstance("deadlock", allocator, programs)

        with pytest.raises(SimulationStuck):
            run_workload(Deadlock(), "MESI", config_16())

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            run_workload(make_kernel("tatas", "counter"), "MOESI", config_16())


class TestNormalize:
    def test_normalize_to_baseline(self):
        workload = make_kernel("tatas", "counter", spec=KernelSpec(scale=SCALE))
        base = run_workload(workload, "MESI", config_16(), seed=1)
        workload = make_kernel("tatas", "counter", spec=KernelSpec(scale=SCALE))
        other = run_workload(workload, "DeNovoSync", config_16(), seed=1)
        rows = normalize_to([base, other], base)
        assert rows[0]["rel_time"] == pytest.approx(1.0)
        assert rows[1]["rel_time"] == other.cycles / base.cycles


class TestCli:
    def test_cli_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

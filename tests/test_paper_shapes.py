"""Reproduction-shape regression tests.

These assert the *qualitative* results of the paper's evaluation at small
scale — who wins, in which direction, for which synchronization pattern.
They are the repository's contract that the reproduction keeps
reproducing; EXPERIMENTS.md records the corresponding quantitative runs.

Thresholds are deliberately loose: shapes must hold, exact ratios may
drift with scale and seed.
"""

import pytest

from repro.config import config_for_cores
from repro.harness.experiments import (
    run_selfinv_ablation,
    run_sw_backoff_ablation,
)
from repro.harness.runner import run_workload
from repro.workloads.apps import make_app
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

SCALE = 0.05


def run(figure, name, protocol, cores=16, seed=1, **kwargs):
    workload = make_kernel(figure, name, spec=KernelSpec(scale=SCALE), **kwargs)
    return run_workload(workload, protocol, config_for_cores(cores), seed=seed)


class TestFigure3Shapes:
    """TATAS kernels: DeNovo comparable or better, big traffic savings."""

    @pytest.mark.parametrize("name", ["single Q", "stack", "counter"])
    def test_denovosync_beats_mesi_on_small_cs_kernels(self, name):
        mesi = run("tatas", name, "MESI")
        denovo = run("tatas", name, "DeNovoSync")
        assert denovo.cycles < mesi.cycles
        assert denovo.total_traffic < mesi.total_traffic

    def test_gap_grows_with_core_count(self):
        ratios = {}
        for cores in (16, 64):
            mesi = run("tatas", "counter", "MESI", cores=cores)
            denovo = run("tatas", "counter", "DeNovoSync0", cores=cores)
            ratios[cores] = denovo.cycles / mesi.cycles
        assert ratios[64] < ratios[16]

    def test_mesi_invalidation_traffic_present(self):
        mesi = run("tatas", "counter", "MESI")
        assert mesi.traffic_breakdown()["Inv"] > 0

    def test_denovo_has_no_invalidation_traffic(self):
        for protocol in ("DeNovoSync0", "DeNovoSync"):
            result = run("tatas", "counter", protocol)
            assert result.traffic_breakdown()["Inv"] == 0
            assert result.traffic_breakdown()["SYNCH"] > 0


class TestFigure4Shapes:
    """Array locks: DS == DS0 (no spurious registrations to back off)."""

    @pytest.mark.parametrize("name", ["single Q", "counter"])
    def test_backoff_changes_nothing_for_array_locks(self, name):
        from repro.stats.timeparts import TimeComponent

        ds0 = run("array", name, "DeNovoSync0")
        ds = run("array", name, "DeNovoSync")
        assert abs(ds.cycles - ds0.cycles) / ds0.cycles < 0.05
        # Negligible backoff time: single waiter per flag, nothing to delay.
        assert ds.component_cycles(TimeComponent.HW_BACKOFF) < 0.005 * ds.cycles

    def test_denovo_saves_traffic_on_array_locks(self):
        mesi = run("array", "counter", "MESI")
        denovo = run("array", "counter", "DeNovoSync")
        assert denovo.total_traffic < 0.6 * mesi.total_traffic

    def test_heap_is_denovos_weak_spot(self):
        """Conservative region self-invalidation hurts heap under array
        locks (paper: 6-7% worse); allow anything up to 'not much better'."""
        mesi = run("array", "heap", "MESI")
        denovo = run("array", "heap", "DeNovoSync")
        others = run("array", "counter", "DeNovoSync").cycles / run(
            "array", "counter", "MESI"
        ).cycles
        heap_ratio = denovo.cycles / mesi.cycles
        assert heap_ratio > others  # heap is relatively worse for DeNovo


class TestFigure5Shapes:
    """Non-blocking kernels: read-heavy CAS loops hurt DeNovo; single-
    hot-word structures favour it; traffic is always lower."""

    def test_ms_queue_prelinearization_cost(self):
        mesi = run("nonblocking", "M-S queue", "MESI", cores=64)
        ds0 = run("nonblocking", "M-S queue", "DeNovoSync0", cores=64)
        assert ds0.counters.get("read_registration_steals") > 0
        assert ds0.cycles > 0.9 * mesi.cycles  # comparable-to-worse

    def test_treiber_favours_denovo_at_scale(self):
        mesi = run("nonblocking", "Treiber stack", "MESI", cores=64)
        ds = run("nonblocking", "Treiber stack", "DeNovoSync", cores=64)
        assert ds.cycles < mesi.cycles

    @pytest.mark.parametrize(
        "name", ["M-S queue", "Treiber stack", "Herlihy stack", "FAI counter"]
    )
    def test_traffic_always_lower(self, name):
        mesi = run("nonblocking", name, "MESI")
        ds = run("nonblocking", name, "DeNovoSync")
        assert ds.total_traffic < mesi.total_traffic


class TestFigure6Shapes:
    """Barriers: tree barriers tie on time with big traffic savings; the
    centralized barrier is DeNovo's traffic-unfriendly pattern."""

    @pytest.mark.parametrize("name", ["tree", "n-ary"])
    def test_tree_barriers_comparable_time(self, name):
        mesi = run("barrier", name, "MESI")
        ds = run("barrier", name, "DeNovoSync")
        assert abs(ds.cycles - mesi.cycles) / mesi.cycles < 0.15

    @pytest.mark.parametrize("name", ["tree", "n-ary"])
    def test_tree_barriers_big_traffic_savings(self, name):
        mesi = run("barrier", name, "MESI")
        ds = run("barrier", name, "DeNovoSync")
        assert ds.total_traffic < 0.6 * mesi.total_traffic

    def test_central_barrier_relative_traffic_worse_than_tree(self):
        tree_ratio = (
            run("barrier", "tree", "DeNovoSync0").total_traffic
            / run("barrier", "tree", "MESI").total_traffic
        )
        central_ratio = (
            run("barrier", "central", "DeNovoSync0").total_traffic
            / run("barrier", "central", "MESI").total_traffic
        )
        assert central_ratio > tree_ratio

    def test_tree_barriers_scale_better_in_traffic(self):
        """The paper's scalability point, asserted on traffic (our timing
        model rates the centralized barrier slightly cheaper in absolute
        cycles at small scale — a documented deviation): the per-episode
        network cost of the centralized barrier grows much faster with
        core count than the tree's."""
        tree = run("barrier", "tree", "DeNovoSync", cores=64)
        central = run("barrier", "central", "DeNovoSync", cores=64)
        # Under DeNovo the centralized departure serializes read
        # registrations over one word: more traffic than the whole tree.
        assert tree.total_traffic < central.total_traffic
        # ... and absolute times stay in the same ballpark.
        assert tree.cycles <= central.cycles * 1.6


class TestFigure7Shapes:
    """Applications: comparable time, lower traffic; the paper's named
    outliers point the right way."""

    def test_lu_false_sharing_favours_denovo(self):
        config = config_for_cores(64)
        mesi = run_workload(make_app("LU", scale=0.25), "MESI", config, seed=2)
        ds = run_workload(make_app("LU", scale=0.25), "DeNovoSync", config, seed=2)
        assert ds.cycles < mesi.cycles

    def test_fluidanimate_conservative_selfinv_hurts_denovo(self):
        config = config_for_cores(64)
        mesi = run_workload(make_app("fluidanimate", scale=0.5), "MESI", config, seed=2)
        ds = run_workload(
            make_app("fluidanimate", scale=0.5), "DeNovoSync", config, seed=2
        )
        assert ds.cycles > 0.95 * mesi.cycles  # comparable-to-worse
        # The mechanism: DeNovo invalidated (and re-missed) far more data.
        assert ds.counters.get("self_invalidated_words") > 0

    @pytest.mark.parametrize("name", ["blackscholes", "radix", "canneal", "ferret"])
    def test_traffic_lower_across_patterns(self, name):
        from repro.workloads.apps import app_core_count

        config = config_for_cores(app_core_count(name))
        mesi = run_workload(make_app(name, scale=0.15), "MESI", config, seed=2)
        ds = run_workload(make_app(name, scale=0.15), "DeNovoSync", config, seed=2)
        assert ds.total_traffic < mesi.total_traffic


class TestAblationShapes:
    def test_sw_backoff_cuts_denovo_false_races(self):
        """Section 7.1.1's mechanism: software backoff spaces failed
        synchronization reads, slashing DeNovo's false-race registration
        steals and improving its absolute time.  (In our model MESI also
        benefits — see the deviation note in EXPERIMENTS.md — so we assert
        the mechanism, not the relative-gap change.)"""
        results = run_sw_backoff_ablation(cores=64, scale=SCALE)

        def ds0_stat(figure_result, fn):
            return sum(fn(r.results["DeNovoSync0"]) for r in figure_result.rows)

        def steals(res):
            return res.counters.get("read_registration_steals")
        assert ds0_stat(results["sw backoff"], steals) < ds0_stat(
            results["no backoff"], steals
        )

    def test_flush_all_selfinv_never_helps(self):
        results = run_selfinv_ablation(app="water", scale=0.15, seed=2)
        selective = results["selective regions"].rows[0].rel_time("DeNovoSync")
        flush = results["flush-all"].rows[0].rel_time("DeNovoSync")
        assert flush >= selective * 0.95

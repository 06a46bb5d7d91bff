"""Tests for result export (CSV/JSON) and the energy model."""

import csv
import io
import json

import pytest

from repro.harness.experiments import run_kernel_figure
from repro.harness.export import (
    figure_to_rows,
    result_to_dict,
    write_figure_csv,
    write_figure_json,
)
from repro.stats.energy import EnergyModel, energy_ratio


@pytest.fixture(scope="module")
def small_figure():
    return run_kernel_figure(
        "tatas", core_counts=(16,), scale=0.02, names=["counter"]
    )


class TestExport:
    def test_result_to_dict_fields(self, small_figure):
        result = small_figure.rows[0].results["MESI"]
        row = result_to_dict(result)
        assert row["protocol"] == "MESI"
        assert row["cycles"] == result.cycles
        assert row["traffic.Inv"] >= 0
        assert "time.memory stall" in row
        assert any(key.startswith("counter.") for key in row)

    def test_figure_rows_have_relative_metrics(self, small_figure):
        from repro.harness.experiments import KERNEL_PROTOCOLS

        rows = figure_to_rows(small_figure)
        assert len(rows) == len(KERNEL_PROTOCOLS)  # one kernel x defaults
        mesi = next(r for r in rows if r["protocol"] == "MESI")
        assert mesi["rel_time"] == pytest.approx(1.0)

    def test_figure_rows_carry_the_tables_row_labels(self, small_figure):
        from repro.harness.experiments import FigureResult, FigureRow

        assert {r["workload"] for r in figure_to_rows(small_figure)} == {"counter"}
        results = small_figure.rows[0].results
        setting = FigureResult("Sensitivity (x)", [FigureRow("occ 8 link 2", 16, results)], 0.02)
        assert {r["workload"] for r in figure_to_rows(setting)} == {"occ 8 link 2"}

    def test_csv_roundtrip(self, small_figure):
        buffer = io.StringIO()
        count = write_figure_csv(small_figure, buffer)
        buffer.seek(0)
        parsed = list(csv.DictReader(buffer))
        from repro.harness.experiments import KERNEL_PROTOCOLS

        assert len(parsed) == count == len(KERNEL_PROTOCOLS)
        assert {row["protocol"] for row in parsed} == set(KERNEL_PROTOCOLS)
        assert float(parsed[0]["cycles"]) > 0

    def test_csv_leads_with_identity_columns(self, small_figure):
        buffer = io.StringIO()
        write_figure_csv(small_figure, buffer)
        header = buffer.getvalue().splitlines()[0].split(",")
        assert header[:4] == ["figure", "workload", "protocol", "num_cores"]

    def test_json_export(self, small_figure):
        buffer = io.StringIO()
        count = write_figure_json(small_figure, buffer)
        rows = json.loads(buffer.getvalue())
        assert len(rows) == count
        assert rows[0]["figure"].startswith("Figure 3")

    def test_empty_figure_csv(self):
        from repro.harness.experiments import FigureResult

        buffer = io.StringIO()
        assert write_figure_csv(FigureResult("empty", [], 1.0), buffer) == 0


class TestEnergyModel:
    def test_breakdown_sums_to_total(self, small_figure):
        model = EnergyModel()
        result = small_figure.rows[0].results["MESI"]
        breakdown = model.breakdown(result)
        assert sum(breakdown.values()) == pytest.approx(model.total_pj(result))

    def test_denovo_saves_energy_on_tatas(self, small_figure):
        """The paper's claim: traffic savings translate to energy savings."""
        row = small_figure.rows[0]
        ratio = energy_ratio(row.results["DeNovoSync"], row.results["MESI"])
        assert ratio < 1.0

    def test_network_energy_proportional_to_traffic(self, small_figure):
        model = EnergyModel(pj_per_flit_hop=1.0)
        result = small_figure.rows[0].results["MESI"]
        assert model.network_pj(result) == result.total_traffic

    def test_custom_coefficients(self, small_figure):
        result = small_figure.rows[0].results["MESI"]
        expensive_net = EnergyModel(pj_per_flit_hop=1000.0)
        assert expensive_net.total_pj(result) > EnergyModel().total_pj(result)

    def test_zero_baseline_is_nan(self):
        import math

        from repro.noc.traffic import TrafficLedger
        from repro.stats.collector import ProtocolCounters, RunResult

        empty = RunResult(
            workload="w", protocol="p", num_cores=1, cycles=0,
            per_core_time=[], traffic=TrafficLedger(),
            counters=ProtocolCounters(),
        )
        assert math.isnan(energy_ratio(empty, empty))

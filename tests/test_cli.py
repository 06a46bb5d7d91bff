"""Tests for the command-line interface."""

import csv
import json
import re

import pytest

from repro.harness import cli, experiments
from repro.harness.cli import main as cli_main

ABLATIONS = [name for name in cli.FIGURES if name.startswith("ablation-")]
EXTENSIONS = [name for name in cli.FIGURES if name.startswith("ext-")]


class StopSweep(Exception):
    """Raised by the stub sweep, so nothing is simulated."""


def swept_specs(monkeypatch, argv: list[str], error: type = StopSweep) -> list[list]:
    """The spec list of every ``run_specs`` call ``argv`` makes.  The
    stub sweep raises ``error`` once it has recorded the specs."""
    calls = []

    def record(specs, jobs=1, cache=None):
        calls.append(list(specs))
        raise error("cell failed")

    monkeypatch.setattr(experiments, "run_specs", record)
    with pytest.raises(error):
        cli_main(argv)
    return calls


def seeds_seen(monkeypatch, target: str) -> list[set[int]]:
    """The seeds on the specs ``target`` sweeps with ``--seed 2``, then
    with no ``--seed``."""
    return [
        {spec.seed for specs in swept_specs(monkeypatch, argv) for spec in specs}
        for argv in ([target, "--seed", "2", "--no-cache"], [target, "--no-cache"])
    ]


class TestFigureTargets:
    def test_fig3_table_output(self, capsys):
        assert cli_main(["fig3", "--cores", "16", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "single Q" in out

    def test_plot_format(self, capsys):
        assert (
            cli_main(["fig3", "--cores", "16", "--scale", "0.02", "--format", "plot"])
            == 0
        )
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "|" in out

    def test_csv_format(self, capsys):
        assert (
            cli_main(["fig3", "--cores", "16", "--scale", "0.02", "--format", "csv"])
            == 0
        )
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("figure,workload,protocol")

    def test_json_format(self, capsys):
        assert (
            cli_main(["fig3", "--cores", "16", "--scale", "0.02", "--format", "json"])
            == 0
        )
        from repro.harness.experiments import KERNEL_PROTOCOLS

        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6 * len(KERNEL_PROTOCOLS)  # kernels x protocols

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "target, titles",
        [
            pytest.param("fig3", {"Figure 3 (TATAS locks)"}, id="fig3"),
            pytest.param(
                "ablation-padding",
                {"TATAS locks (padded)", "TATAS locks (unpadded)"},
                id="ablation-padding",
            ),
        ],
    )
    def test_out_directory(self, tmp_path, target, titles, fmt):
        """``--out`` writes one document per target, named by format, that
        reads back whole; every variant's rows are in it."""
        argv = [target, "--scale", "0.02", "--format", fmt, "--out", str(tmp_path)]
        if target == "fig3":
            argv += ["--cores", "16"]
        assert cli_main(argv) == 0
        name = f"{target}.{'txt' if fmt == 'table' else fmt}"
        assert [path.name for path in tmp_path.iterdir()] == [name]
        with open(tmp_path / name) as fh:
            if fmt == "csv":
                rows = list(csv.DictReader(fh))
            elif fmt == "json":
                rows = json.load(fh)
            else:
                text = fh.read()
                rows = [
                    {"figure": title}
                    for title in re.findall(r"^== (.*) \(scale=[^)]*\) ==$", text, re.M)
                ]
                assert not re.search(r"^-- ", text, re.M)
        assert {row["figure"] for row in rows} == titles

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_failing_sweep_leaves_the_table_in_place(self, monkeypatch, tmp_path, error):
        """A sweep interrupted by Ctrl-C or a raising cell must leave every
        table already in ``--out`` byte-identical, not truncated, and
        write no other: ``all`` writes nothing before its one sweep ends."""
        tables = {
            tmp_path / "fig3.txt": "== Figure 3 (TATAS locks) (scale=0.05) ==\nkept\n",
            tmp_path / "ext-rfo.txt": "== Read-for-ownership (array) (scale=0.05) ==\nkept\n",
        }
        for path, text in tables.items():
            path.write_text(text)
        before = {path: path.read_bytes() for path in tables}
        swept_specs(monkeypatch, ["all", "--out", str(tmp_path), "--no-cache"], error)
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("target", sorted(ABLATIONS))
    def test_ablations_read_seed(self, monkeypatch, target):
        assert seeds_seen(monkeypatch, target) == [{2}, {1}]

    @pytest.mark.parametrize("target", sorted(EXTENSIONS))
    def test_extension_studies_read_seed(self, monkeypatch, target):
        assert seeds_seen(monkeypatch, target) == [{2}, {1}]

    def test_all_runs_every_target_at_one_seed(self, monkeypatch):
        """``all`` sweeps every target's cells, each distinct cell once,
        all at its one ``--seed``."""
        argv = ["--seed", "3", "--no-cache"]
        each = [
            spec
            for name in cli.FIGURES
            for specs in swept_specs(monkeypatch, [name, *argv])
            for spec in specs
        ]
        [swept] = swept_specs(monkeypatch, ["all", *argv])
        assert swept == list(dict.fromkeys(each))
        assert {spec.seed for spec in swept} == {3}

    def test_all_is_one_sweep_of_distinct_cells(self, monkeypatch):
        """``all`` makes one ``run_specs`` call, so ``--jobs N`` starts one
        worker pool, and a cell that several targets share (a figure's
        cell in its ablation's baseline, say) is simulated once."""
        calls = swept_specs(monkeypatch, ["all", "--scale", "0.05", "--seed", "3", "--no-cache"])
        assert [len(specs) for specs in calls] == [443]
        assert len(set(calls[0])) == 443
        assert {spec.seed for spec in calls[0]} == {3}


class TestSubmitTarget:
    @pytest.mark.parametrize(
        "target, family",
        [("fig3", "tatas"), ("fig4", "array"), ("fig5", "nonblocking"), ("fig6", "barrier")],
    )
    def test_submit_sweeps_the_kernel_figures_cells(self, monkeypatch, target, family):
        """``submit`` sends the server the specs its family's figure sweeps
        under the same flags, in the same order."""
        flags = ["--cores", "4", "64", "--scale", "0.3", "--seed", "5"]
        args = cli.build_parser().parse_args(["submit", "--sweep-family", family, *flags])
        [swept] = swept_specs(monkeypatch, [target, *flags, "--no-cache"])
        assert cli._submit_cells(args) == swept


class TestRunTarget:
    def test_run_kernel(self, capsys):
        assert (
            cli_main(
                [
                    "run", "--workload", "tatas/counter",
                    "--protocol", "DeNovoSync", "--cores", "16",
                    "--scale", "0.02",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "dynamic energy" in out
        assert "SYNCH" in out

    def test_run_micro(self, capsys):
        assert (
            cli_main(
                ["run", "--workload", "micro/pingpong", "--protocol", "MESI",
                 "--cores", "4"]
            )
            == 0
        )
        assert "micro.pingpong" in capsys.readouterr().out

    def test_run_app_uses_paper_cores(self, capsys):
        assert (
            cli_main(
                ["run", "--workload", "app/ferret", "--protocol", "MESI",
                 "--app-scale", "0.1"]
            )
            == 0
        )
        assert "16 cores" in capsys.readouterr().out

    def test_run_writes_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert (
            cli_main(
                ["run", "--workload", "tatas/counter", "--protocol", "MESI",
                 "--cores", "16", "--scale", "0.02", "--trace", str(trace_path)]
            )
            == 0
        )
        assert trace_path.exists()
        from repro.trace.events import read_trace

        assert len(read_trace(trace_path)) > 0

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["run"])

    def test_run_rejects_bad_spec(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--workload", "nonsense"])


class TestProfileTarget:
    def test_profile_prints_hot_functions(self, capsys, tmp_path):
        out_path = tmp_path / "prof.pstats"
        assert (
            cli_main(
                [
                    "profile",
                    "--workload", "tatas/counter",
                    "--protocol", "DeNovoSync",
                    "--cores", "4",
                    "--scale", "0.02",
                    "--top", "5",
                    "--profile-out", str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "cumtime" in out  # pstats header
        assert "run_workload" in out  # the profiled entry point
        import pstats

        assert pstats.Stats(str(out_path)).total_calls > 0

    def test_profile_requires_workload(self):
        with pytest.raises(SystemExit):
            cli_main(["profile"])

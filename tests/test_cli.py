"""Tests for the command-line interface."""

import csv
import json
import re

import pytest

from repro.harness import cli
from repro.harness.cli import main as cli_main

#: The ablation targets and the runner each one calls.
ABLATION_RUNNERS = {
    "ablation-padding": "run_padding_ablation",
    "ablation-swbackoff": "run_sw_backoff_ablation",
    "ablation-eqchecks": "run_eqcheck_ablation",
    "ablation-selfinv": "run_selfinv_ablation",
}
#: The extension-study targets and the runner each one calls.
EXTENSION_RUNNERS = {
    "ext-lock-design": "run_lock_design_study",
    "ext-rfo": "run_rfo_study",
    "ext-signatures": "run_signatures_study",
    "ext-scaling": "run_scaling_study",
    "ext-sensitivity": "run_sensitivity_study",
}


def seeds_seen(monkeypatch, target: str, runner: str) -> list[int]:
    """The seeds ``target`` hands its runner with ``--seed 2``, then with
    no ``--seed``."""
    seen = []

    def record(**kwargs):
        seen.append(kwargs["seed"])
        return {}

    monkeypatch.setattr(cli, runner, record)
    assert cli_main([target, "--seed", "2", "--no-cache"]) == 0
    assert cli_main([target, "--no-cache"]) == 0
    return seen


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
        """A sweep interrupted by Ctrl-C or a raising cell must leave the
        table already in ``--out`` byte-identical, not truncated."""
        table = tmp_path / "fig3.txt"
        table.write_text("== Figure 3 (TATAS locks) (scale=0.05) ==\nkept\n")
        before = table.read_bytes()

        def runner(*args, **kwargs):
            raise error("cell failed")

        monkeypatch.setattr(cli, "run_kernel_figure", runner)
        with pytest.raises(error):
            cli_main(["fig3", "--out", str(tmp_path), "--no-cache"])
        assert table.read_bytes() == before

    @pytest.mark.parametrize("target", sorted(ABLATION_RUNNERS))
    def test_ablations_read_seed(self, monkeypatch, target):
        assert seeds_seen(monkeypatch, target, ABLATION_RUNNERS[target]) == [2, 1]

    @pytest.mark.parametrize("target", sorted(EXTENSION_RUNNERS))
    def test_extension_studies_read_seed(self, monkeypatch, target):
        assert seeds_seen(monkeypatch, target, EXTENSION_RUNNERS[target]) == [2, 1]

    def test_all_runs_every_target_at_one_seed(self, monkeypatch):
        seen = []

        def runner(*args, **kwargs):
            seen.append(kwargs["seed"])
            return {}

        runners = (*ABLATION_RUNNERS.values(), *EXTENSION_RUNNERS.values())
        for name in ("run_kernel_figure", "run_apps_figure", *runners):
            monkeypatch.setattr(cli, name, runner)
        assert cli_main(["all", "--seed", "3", "--no-cache"]) == 0
        assert seen == [3] * len(cli.FIGURES)


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

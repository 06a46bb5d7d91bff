"""The CLI's flag table: each target accepts exactly the flags it reads,
with its own defaults, however the command line reaches ``main()``."""

from __future__ import annotations

import sys

import pytest

from repro.harness import cli
from repro.harness.cli import TARGETS, build_parser, main
from repro.protocols.registry import (
    default_comparison_set,
    formal_model_set,
    sanitize_comparison_set,
)
from repro.workloads.apps import app_core_count

#: Every flag the CLI has ever offered; the subcommands split them up.
ALL_FLAGS = {
    "--app-scale", "--bound", "--cache-dir", "--cell-deadline", "--check-doc",
    "--cores", "--divergence-bound", "--divergence-schedules", "--drain-timeout",
    "--fault-evict-lines", "--fault-evict-period", "--fault-jitter", "--fault-reorder",
    "--fault-seed", "--format", "--formal-out", "--host", "--invariant-level", "--job",
    "--jobs", "--kill-interval", "--kills", "--litmus", "--max-cycles", "--max-queued",
    "--max-retries", "--max-schedules", "--mc-out", "--names", "--no-cache", "--out",
    "--port", "--profile-out", "--protocol", "--protocols", "--replay", "--sanitize-out",
    "--scale", "--seed", "--seeds", "--sweep-family", "--tla-out", "--top", "--trace",
    "--wait", "--wait-timeout", "--workers", "--workload",
}


def parse(*argv: str) -> dict:
    return vars(build_parser().parse_args(list(argv)))


class TestCommandLineReachesTheHandler:
    """``--cores``/``--scale`` used to be honoured only when ``main`` got an
    explicit argv list with the space-separated spelling."""

    @pytest.mark.parametrize(
        "cores_flag", [["--cores", "4"], ["--cores=4"]], ids=["space", "equals"]
    )
    def test_run_app_cores_from_sys_argv(self, monkeypatch, capsys, cores_flag):
        monkeypatch.setattr(
            sys, "argv",
            ["denovosync-bench", "run", "--workload", "app/LU", "--app-scale", "0.05",
             *cores_flag],
        )
        assert main() == 0
        assert "LU under DeNovoSync on 4 cores:" in capsys.readouterr().out

    def test_profile_app_cores_equals_form(self, capsys):
        argv = ["profile", "--workload", "app/LU", "--app-scale", "0.05", "--cores=4",
                "--top", "1"]
        assert main(argv) == 0
        assert "on 4 cores" in capsys.readouterr().out

    def test_chaos_service_scale_from_sys_argv(self, monkeypatch):
        from repro.service import chaos

        seen = []

        def fake_chaos(config):
            seen.append(config)
            return chaos.ChaosReport()

        monkeypatch.setattr(chaos, "run_service_chaos", fake_chaos)
        monkeypatch.setattr(sys, "argv", ["denovosync-bench", "chaos-service", "--scale", "0.1"])
        assert main() == 0
        assert main(["chaos-service", "--scale=0.2"]) == 0
        assert [config.scale for config in seen] == [0.1, 0.2]


class TestUnreadFlagsAreRejected:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--protocols", "MESI"],
            ["chaos", "--jobs", "4"],
            ["ablation-padding", "--seed", "3"],
            ["status", "--scale", "0.1"],
            ["protocols", "--jobs", "2"],
            ["sanitize", "--cores", "16", "64"],
            ["chaos", "--cores", "16", "64"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValuesAreValidated:
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_cell_deadline_must_be_finite_and_positive(self, value, capsys):
        # A zero deadline kills every cell on its first supervision pass,
        # and a NaN one never fires.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--cell-deadline", value])
        assert excinfo.value.code == 2
        assert "finite, positive number of seconds" in capsys.readouterr().err


class TestDefaults:
    """With no flags, every target gets the effective defaults it had when
    all targets shared one flag set."""

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6"])
    def test_kernel_figures(self, name):
        assert parse(name) == {
            "target": name, "handler": TARGETS[name].handler, "jobs": 1,
            "no_cache": False, "cache_dir": None, "out": None, "format": "table",
            "cores": [16, 64], "scale": 0.1, "seed": 1,
        }

    def test_app_figure_and_ablations(self):
        assert parse("fig7")["app_scale"] == 0.5 and parse("fig7")["seed"] == 1
        for name in ("ablation-padding", "ablation-swbackoff", "ablation-eqchecks"):
            assert parse(name)["scale"] == 0.1
        assert parse("ablation-selfinv")["app_scale"] == 0.5
        everything = parse("all")
        assert (everything["cores"], everything["scale"], everything["app_scale"]) == (
            [16, 64], 0.1, 0.5
        )

    def test_run_cores_follow_the_workload(self):
        _, config = cli._build_workload(build_parser().parse_args(
            ["run", "--workload", "app/LU", "--app-scale", "0.05"]
        ))
        assert config.num_cores == app_core_count("LU")
        assert config.invariant_level == "off"
        _, config = cli._build_workload(build_parser().parse_args(
            ["profile", "--workload", "tatas/counter"]
        ))
        assert config.num_cores == 16
        args = parse("run", "--workload", "micro/pingpong")
        assert (args["protocol"], args["scale"], args["app_scale"], args["seed"]) == (
            "DeNovoSync", 0.1, 0.5, 1
        )

    def test_chaos(self):
        args = parse("chaos")
        assert args["invariant_level"] == "full"
        assert tuple(args["protocols"]) == default_comparison_set()
        assert (args["cores"], args["scale"], args["seeds"]) == (16, 0.1, [1, 2, 3])

    def test_chaos_service(self):
        args = parse("chaos-service")
        assert (args["workers"], args["scale"], args["cell_deadline"]) == (2, 0.3, 5.0)
        assert (args["cores"], args["seed"], args["kills"], args["kill_interval"]) == (
            16, 1, 2, 0.3
        )
        assert (args["max_retries"], args["wait_timeout"], args["cache_dir"]) == (
            3, 600.0, None
        )

    def test_service_targets(self):
        args = parse("serve")
        assert (args["workers"], args["cell_deadline"], args["max_retries"]) == (0, None, 3)
        assert (args["host"], args["port"], args["max_queued"], args["drain_timeout"]) == (
            "127.0.0.1", 8642, 4096, 30.0
        )
        assert (parse("status")["port"], parse("status")["job"]) == (8642, None)
        assert parse("submit")["wait_timeout"] == 600.0

    def test_protocols_target(self):
        args = parse("protocols")
        assert (args["format"], args["check_doc"]) == ("table", ())

    def test_protocol_sets_per_target(self):
        assert tuple(parse("mc")["protocols"]) == default_comparison_set()
        assert tuple(parse("submit")["protocols"]) == default_comparison_set()
        assert tuple(parse("sanitize")["protocols"]) == sanitize_comparison_set()
        assert tuple(parse("formal")["protocols"]) == formal_model_set()

    def test_mc_and_formal(self):
        args = parse("mc")
        assert (args["bound"], args["litmus"], args["max_schedules"]) == (2, (), 20_000)
        assert parse("mc", "--bound", "-1")["bound"] is None  # unbounded
        args = parse("formal")
        assert (args["divergence_bound"], args["divergence_schedules"], args["jobs"]) == (
            1, 300, 1
        )

    def test_sanitize_and_submit(self):
        args = parse("sanitize")
        assert (args["cores"], args["scale"], args["seed"], args["jobs"]) == (16, 0.1, 1, 1)
        args = parse("submit")
        assert (args["cores"], args["sweep_family"], args["names"], args["wait"]) == (
            [16, 64], "tatas", (), False
        )


class TestFlagTable:
    def test_union_of_target_flags_is_every_flag(self):
        union = {flag for target in TARGETS.values() for flag in target.flag_names()}
        assert union == ALL_FLAGS == set(cli.FLAGS)
        assert len(ALL_FLAGS) == 48

    def test_parser_matches_the_table(self):
        parser = build_parser()
        (subcommands,) = [
            action for action in parser._actions if action.dest == "target"
        ]
        assert list(subcommands.choices) == list(TARGETS)
        for name, sub in subcommands.choices.items():
            flags = [
                option for action in sub._actions for option in action.option_strings
                if option not in ("-h", "--help")
            ]
            assert flags == TARGETS[name].flag_names(), name

    def test_options_only_override_flags_the_target_takes(self):
        for name, target in TARGETS.items():
            assert set(target.options) <= set(target.flag_names()), name

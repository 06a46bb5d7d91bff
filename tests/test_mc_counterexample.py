"""End-to-end counterexample pipeline: find a real (re-introduced) bug,
minimize its schedule, export a replayable artifact, reproduce it."""

import pytest

from repro.harness.cli import main
from repro.mc import CORPUS, explore
from repro.mc.artifact import load_counterexample, replay_counterexample
from repro.mc.cells import McCell, run_cell
from repro.protocols.mesi import MesiProtocol, MesiState


def _broken_handle_victim(self, core_id, vline, vstate):
    """The PR-1 sleeping-waiter bug, re-introduced: eviction bookkeeping
    without the spin-waiter wake-up (no ``_wake`` call)."""
    ventry = self._entry(vline)
    if vstate in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
        ventry.exclusive_owner = None
    else:
        ventry.sharers.discard(core_id)


@pytest.fixture
def broken_mesi(monkeypatch):
    monkeypatch.setattr(MesiProtocol, "_handle_victim", _broken_handle_victim)


class TestCounterexamplePipeline:
    def test_control_without_shim_is_clean(self):
        result = explore(CORPUS["mp+evict"], "MESI", bound=2)
        assert result.violation is None

    def test_shim_found_as_deadlock(self, broken_mesi):
        result = explore(CORPUS["mp+evict"], "MESI", bound=2)
        assert result.violation is not None
        assert result.violation.kind == "deadlock"
        # The counterexample needs the eviction environment action.
        assert any(c[0] == "evict" for c in result.violating_schedule)
        # The diagnostic dump names the stuck waiter.
        assert "WaitLoad" in result.violation.dump

    def test_minimized_and_replayable(self, broken_mesi, tmp_path):
        cell = McCell(
            test_name="mp+evict", protocol="MESI", bound=2,
            out_dir=str(tmp_path),
        )
        outcome = run_cell(cell)
        assert outcome.violation_kind == "deadlock"
        assert 0 < outcome.minimized_len <= outcome.schedule_len
        assert outcome.artifact_path is not None

        payload = load_counterexample(outcome.artifact_path)
        assert payload["test"] == "mp+evict"
        assert payload["violation"]["kind"] == "deadlock"
        assert payload["schedule"]  # non-empty list of tuples
        assert all(isinstance(c, tuple) for c in payload["schedule"])

        # Deterministic reproduction: same violation, identical trace.
        for _ in range(2):
            _, report = replay_counterexample(outcome.artifact_path)
            assert report.reproduced
            assert report.trace_identical

    def test_cli_replay_roundtrip(self, broken_mesi, tmp_path, capsys):
        outcome = run_cell(
            McCell(
                test_name="mp+evict", protocol="MESI", bound=2,
                out_dir=str(tmp_path),
            )
        )
        rc = main(["mc", "--replay", outcome.artifact_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reproduced deterministically" in out

    def test_artifact_replay_fails_cleanly_when_bug_fixed(
        self, monkeypatch, tmp_path
    ):
        """An artifact recorded against the broken protocol must report
        non-reproduction (not crash) once the bug is fixed."""
        with monkeypatch.context() as patch:
            patch.setattr(
                MesiProtocol, "_handle_victim", _broken_handle_victim
            )
            outcome = run_cell(
                McCell(
                    test_name="mp+evict", protocol="MESI", bound=2,
                    out_dir=str(tmp_path),
                )
            )
        _, report = replay_counterexample(outcome.artifact_path)
        assert not report.reproduced


class TestMcCli:
    def test_mc_target_smoke(self, capsys):
        rc = main(
            [
                "mc", "--litmus", "mp", "--protocols", "MESI", "DeNovoSync",
                "--bound", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 cells clean" in out

    def test_mc_target_rejects_unknown_litmus(self):
        with pytest.raises(SystemExit, match="unknown litmus"):
            main(["mc", "--litmus", "nope"])

    def test_mc_target_reports_violation_exit_code(
        self, broken_mesi, tmp_path, capsys
    ):
        rc = main(
            [
                "mc", "--litmus", "mp+evict", "--protocols", "MESI",
                "--bound", "2", "--mc-out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "VIOLATION [deadlock]" in out
        assert "artifact" in out

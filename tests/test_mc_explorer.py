"""Tests for the model-checking subsystem: controlled execution,
determinism, DPOR exploration, and corpus safety."""

import json

import pytest

from repro.mc import CORPUS, ScheduleController, explore, run_schedule
from repro.mc.explorer import _naive_interleavings
from repro.mc.runner import ScheduleDivergence, StepInfo, dependent
from repro.protocols import protocol_names


class TestControlledExecution:
    def test_default_schedule_completes(self):
        execution = run_schedule(CORPUS["mp"], "MESI")
        assert execution.completed
        assert execution.ok
        assert len(execution.steps) == len(execution.schedule)
        # Every core that executed ops shows up in the counts.
        assert set(execution.op_counts) == {0, 1}

    def test_one_visible_op_per_step(self):
        execution = run_schedule(CORPUS["sb"], "DeNovoSync")
        for step in execution.steps:
            assert step.choice[0] == "core"
            # Each core step commits exactly one access record (spin
            # probes included — a probe is a sync load).
            assert len(step.records) == 1
            assert step.records[0].core == step.choice[1]

    def test_forced_prefix_is_respected(self):
        base = run_schedule(CORPUS["mp"], "MESI")
        replay = run_schedule(CORPUS["mp"], "MESI", forced=base.schedule)
        assert replay.schedule == base.schedule
        assert replay.completed

    def test_divergent_forced_choice_raises(self):
        with pytest.raises(ScheduleDivergence):
            run_schedule(CORPUS["mp"], "MESI", forced=[("core", 3)])

    def test_tolerant_replay_skips_disabled_choices(self):
        execution = run_schedule(
            CORPUS["mp"], "MESI", forced=[("core", 3)], tolerant=True
        )
        assert execution.completed
        assert execution.skipped_forced == 1

    def test_double_gate_rejected(self):
        controller = ScheduleController()

        class FakeCore:
            core_id = 0

        core = FakeCore()
        controller.arrive(core, None, lambda: None)
        with pytest.raises(RuntimeError, match="twice"):
            controller.arrive(core, None, lambda: None)


class TestDeterminism:
    """Satellite: the same decision sequence must give byte-identical
    observable output and final memory, for every protocol."""

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_same_schedule_same_bytes(self, protocol):
        def fingerprint():
            execution = run_schedule(CORPUS["treiber"], protocol)
            trace_bytes = "\n".join(r.to_json() for r in execution.trace)
            memory_bytes = json.dumps(
                sorted(execution.final_memory.items())
            )
            counts_bytes = json.dumps(sorted(execution.op_counts.items()))
            return execution.schedule, trace_bytes, memory_bytes, counts_bytes

        first, second = fingerprint(), fingerprint()
        assert first == second

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_forced_replay_reproduces_bytes(self, protocol):
        base = run_schedule(CORPUS["lock"], protocol)
        replay = run_schedule(CORPUS["lock"], protocol, forced=base.schedule)
        assert [r.to_json() for r in replay.trace] == [
            r.to_json() for r in base.trace
        ]
        assert replay.final_memory == base.final_memory


class TestDependence:
    def _info(self, core, lines, mutating):
        return StepInfo(
            actor=("core", core), core=core,
            lines=None if lines is None else frozenset(lines),
            mutating=mutating,
        )

    def test_same_core_always_dependent(self):
        a = self._info(0, {1}, False)
        b = self._info(0, {2}, False)
        assert dependent(a, b)

    def test_reads_commute(self):
        a = self._info(0, {1}, False)
        b = self._info(1, {1}, False)
        assert not dependent(a, b)

    def test_write_conflicts_with_read_on_same_line(self):
        a = self._info(0, {1}, True)
        b = self._info(1, {1}, False)
        assert dependent(a, b)

    def test_disjoint_lines_commute(self):
        a = self._info(0, {1}, True)
        b = self._info(1, {2}, True)
        assert not dependent(a, b)

    def test_flush_all_conflicts_with_any_write(self):
        a = self._info(0, None, False)
        b = self._info(1, {7}, True)
        assert dependent(a, b)


class TestExploration:
    def test_naive_estimate_is_multinomial(self):
        assert _naive_interleavings({0: 2, 1: 2}) == 6
        assert _naive_interleavings({0: 3}) == 1

    def test_mp_explores_clean_with_pruning(self):
        result = explore(CORPUS["mp"], "MESI", bound=2)
        assert result.violation is None
        assert not result.truncated
        assert result.executions >= 2  # both probe/store orders seen
        assert result.pruning_factor >= 5.0

    def test_bound_zero_is_subset_of_bound_two(self):
        small = explore(CORPUS["sb"], "DeNovoSync", bound=0)
        large = explore(CORPUS["sb"], "DeNovoSync", bound=2)
        assert small.violation is None and large.violation is None
        assert small.executions <= large.executions
        assert large.bound_pruned >= 0

    def test_exploration_is_deterministic(self):
        runs = [explore(CORPUS["cas"], "DeNovoSync0", bound=1) for _ in range(2)]
        assert runs[0].executions == runs[1].executions
        assert runs[0].sleep_cuts == runs[1].sleep_cuts
        assert runs[0].bound_pruned == runs[1].bound_pruned

    def test_max_schedules_truncates(self):
        result = explore(CORPUS["lock"], "MESI", bound=2, max_schedules=2)
        assert result.truncated
        assert result.executions == 2


class TestCorpusSafety:
    """Acceptance: the whole corpus explores clean at preemption bound 2
    under every registered protocol, with DPOR pruning >= 5x the naive
    interleaving count in every cell."""

    @pytest.mark.parametrize("protocol", protocol_names())
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_cell_clean_and_pruned(self, name, protocol):
        result = explore(CORPUS[name], protocol, bound=2)
        assert result.violation is None, result.violation and result.violation.describe()
        assert not result.truncated
        assert result.pruning_factor >= 5.0

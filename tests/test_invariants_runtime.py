"""Runtime coherence invariant checker tests.

Hand-built illegal states (two Modified copies, a stale DeNovo registry,
a Valid word missing from its self-invalidation tracking) must trip the
checker with messages naming the line/word and the cores involved; full
checking over real kernel executions must find nothing.
"""

import pytest

from repro.config import config_for_cores
from repro.harness.runner import run_workload
from repro.mem.l1 import DeNovoState, MesiState
from repro.protocols import make_protocol
from repro.protocols.invariants import InvariantViolation, verify
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

#: Beyond any transfer latency, so directs calls never hit a busy window.
STEP = 2_000


def _mesi(level="full", **overrides):
    config = config_for_cores(4, invariant_level=level, **overrides)
    return make_protocol("MESI", config)


def _denovo(level="full", **overrides):
    config = config_for_cores(4, invariant_level=level, **overrides)
    return make_protocol("DeNovoSync", config)


class TestMesiInvariants:
    def test_clean_state_has_no_violations(self):
        protocol = _mesi()
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.set_time(2 * STEP)
        protocol.load(1, 0, ticketed=True)
        assert protocol.invariant_violations() == []
        verify(protocol)  # must not raise

    def test_two_modified_copies_detected(self):
        protocol = _mesi(level="off")
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)  # core 0: line 0 in M
        protocol.l1s[1].insert(0, MesiState.MODIFIED)  # illegal second M copy
        with pytest.raises(InvariantViolation) as excinfo:
            verify(protocol)
        message = str(excinfo.value)
        assert "line 0" in message
        assert "coexists with copies at cores [1]" in message
        assert "directory records owner 0" in message

    def test_sharer_unknown_to_directory_detected(self):
        protocol = _mesi(level="off")
        protocol.set_time(STEP)
        protocol.load(0, 0, ticketed=True)
        protocol.set_time(2 * STEP)
        protocol.load(1, 0, ticketed=True)  # line 0 now unowned, sharers {0, 1}
        protocol.l1s[2].insert(0, MesiState.SHARED)  # directory never told
        violations = protocol.invariant_violations()
        assert any(
            "line 0" in v and "cores [2]" in v and "does not know" in v
            for v in violations
        )

    def test_full_level_checks_on_set_time(self):
        protocol = _mesi(level="full")
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.l1s[1].insert(0, MesiState.MODIFIED)
        with pytest.raises(InvariantViolation):
            protocol.set_time(STEP + 1)

    def test_sampled_level_trips_within_period(self):
        protocol = _mesi(level="sampled", invariant_sample_period=8)
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.l1s[1].insert(0, MesiState.MODIFIED)
        with pytest.raises(InvariantViolation):
            for tick in range(1, 9):  # at most one full period of calls
                protocol.set_time(STEP + tick)

    def test_off_level_never_checks(self):
        protocol = _mesi(level="off")
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.l1s[1].insert(0, MesiState.MODIFIED)
        for tick in range(1, 200):
            protocol.set_time(STEP + tick)  # never raises
        # The state is still reportable on demand.
        assert protocol.invariant_violations()


class TestDeNovoInvariants:
    def test_clean_state_has_no_violations(self):
        protocol = _denovo()
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.set_time(2 * STEP)
        protocol.load(1, 0, ticketed=True)
        assert protocol.invariant_violations() == []
        verify(protocol)

    def test_stale_registry_pointer_detected(self):
        protocol = _denovo(level="off")
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)  # word 0 registered at 0
        protocol.l1s[0].invalidate_word(0)  # copy gone, registry not updated
        with pytest.raises(InvariantViolation) as excinfo:
            verify(protocol)
        message = str(excinfo.value)
        assert "word 0" in message
        assert "registry points at core 0" in message

    def test_stale_registered_value_detected(self):
        protocol = _denovo(level="off")
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.memory.write(0, 99)  # backing store diverges from the copy
        violations = protocol.invariant_violations()
        assert any(
            "word 0" in v and "core 0" in v and "stale" in v for v in violations
        )

    def test_second_registered_copy_detected(self):
        protocol = _denovo(level="off")
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.l1s[1].fill_word(0, 7, DeNovoState.REGISTERED)
        violations = protocol.invariant_violations()
        assert any(
            "word 0" in v and "core 1" in v and "registry points at 0" in v
            for v in violations
        )

    def test_untracked_valid_word_detected(self):
        protocol = _denovo(level="off")
        protocol.set_time(STEP)
        protocol.load(1, 0, ticketed=True)  # core 1 caches word 0 Valid
        assert protocol.l1s[1].state_of(0, touch=False) is DeNovoState.VALID
        protocol.l1s[1]._valid_by_region.clear()  # desync the tracking
        violations = protocol.invariant_violations()
        assert any(
            "word 0" in v and "core 1" in v and "self-invalidation" in v
            for v in violations
        )

    def test_violation_carries_structured_fields(self):
        protocol = _denovo(level="off")
        protocol.set_time(STEP)
        protocol.store(0, 0, 1, sync=True, ticketed=True)
        protocol.l1s[0].invalidate_word(0)
        with pytest.raises(InvariantViolation) as excinfo:
            protocol.check_invariants()
        exc = excinfo.value
        assert exc.protocol_name == protocol.name
        assert exc.now == STEP
        assert len(exc.violations) >= 1


class TestFullCheckingOnKernels:
    """Acceptance: full invariant checking over real executions is clean."""

    @pytest.mark.parametrize("protocol_name", ["MESI", "DeNovoSync0", "DeNovoSync"])
    @pytest.mark.parametrize(
        "figure,name", [("tatas", "counter"), ("nonblocking", "FAI counter")]
    )
    def test_kernels_run_clean_under_full_checking(
        self, protocol_name, figure, name
    ):
        config = config_for_cores(16, invariant_level="full")
        workload = make_kernel(figure, name, spec=KernelSpec(scale=0.02))
        result = run_workload(
            workload, protocol_name, config, seed=1, keep_protocol=True
        )
        assert result.cycles > 0
        assert result.meta["protocol"].invariant_violations() == []

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
from repro.protocols.invariants import InvariantAudit, InvariantViolation
from repro.protocols.mesi import MesiProtocol
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

#: Beyond any transfer latency, so directs calls never hit a busy window.
STEP = 2_000


def _mesi(level="full"):
    return make_protocol("MESI", config_for_cores(4, invariant_level=level))


def _denovo(level="full"):
    return make_protocol("DeNovoSync", config_for_cores(4, invariant_level=level))


def _two_modified_copies(protocol) -> None:
    """Core 0 owns line 0 in M; plant an illegal second M copy at core 1."""
    protocol.now = STEP
    protocol.store(0, 0, 1, sync=True)
    protocol.l1s[1].insert(0, MesiState.MODIFIED)


def _load_other_lines(protocol, count: int) -> int:
    """Load ``count`` lines that the planted violation does not touch;
    returns how many loads ran before an audit tripped."""
    done = 0
    try:
        for i in range(1, count + 1):
            protocol.load(2, i * protocol.amap.words_per_line)
            done += 1
    except InvariantViolation:
        pass
    return done


class TestMesiInvariants:
    def test_clean_state_has_no_violations(self):
        protocol = _mesi()
        protocol.now = STEP
        protocol.store(0, 0, 1, sync=True)
        protocol.now = 2 * STEP
        protocol.load(1, 0)
        assert protocol.invariant_violations() == []
        protocol.check_invariants()  # must not raise

    def test_two_modified_copies_detected(self):
        protocol = _mesi(level="off")
        protocol.now = STEP
        protocol.store(0, 0, 1, sync=True)  # core 0: line 0 in M
        protocol.l1s[1].insert(0, MesiState.MODIFIED)  # illegal second M copy
        with pytest.raises(InvariantViolation) as excinfo:
            protocol.check_invariants()
        message = str(excinfo.value)
        assert "line 0" in message
        assert "coexists with copies at cores [1]" in message
        assert "directory records owner 0" in message

    def test_sharer_unknown_to_directory_detected(self):
        protocol = _mesi(level="off")
        protocol.now = STEP
        protocol.load(0, 0)
        protocol.now = 2 * STEP
        protocol.load(1, 0)  # line 0 now unowned, sharers {0, 1}
        protocol.l1s[2].insert(0, MesiState.SHARED)  # directory never told
        violations = protocol.invariant_violations()
        assert any(
            "line 0" in v and "cores [2]" in v and "does not know" in v
            for v in violations
        )

    def test_full_level_audits_before_every_call(self):
        protocol = _mesi(level="full")
        assert isinstance(protocol, InvariantAudit)
        _two_modified_copies(protocol)
        assert _load_other_lines(protocol, 1) == 0

    def test_off_level_never_checks(self):
        protocol = _mesi(level="off")
        assert type(protocol) is MesiProtocol  # no wrapper at all
        _two_modified_copies(protocol)
        assert _load_other_lines(protocol, 200) == 200  # never raises
        # The state is still reportable on demand.
        assert protocol.invariant_violations()


class TestDeNovoInvariants:
    def test_clean_state_has_no_violations(self):
        protocol = _denovo()
        protocol.now = STEP
        protocol.store(0, 0, 1, sync=True)
        protocol.now = 2 * STEP
        protocol.load(1, 0)
        assert protocol.invariant_violations() == []
        protocol.check_invariants()

    def test_stale_registry_pointer_detected(self):
        protocol = _denovo(level="off")
        protocol.now = STEP
        protocol.store(0, 0, 1, sync=True)  # word 0 registered at 0
        protocol.l1s[0].invalidate_word(0)  # copy gone, registry not updated
        with pytest.raises(InvariantViolation) as excinfo:
            protocol.check_invariants()
        message = str(excinfo.value)
        assert "word 0" in message
        assert "registry points at core 0" in message

    def test_stale_registered_value_detected(self):
        protocol = _denovo(level="off")
        protocol.now = STEP
        protocol.store(0, 0, 1, sync=True)
        protocol.memory.write(0, 99)  # backing store diverges from the copy
        violations = protocol.invariant_violations()
        assert any(
            "word 0" in v and "core 0" in v and "stale" in v for v in violations
        )

    def test_second_registered_copy_detected(self):
        protocol = _denovo(level="off")
        protocol.now = STEP
        protocol.store(0, 0, 1, sync=True)
        protocol.l1s[1].fill_word(0, 7, DeNovoState.REGISTERED)
        violations = protocol.invariant_violations()
        assert any(
            "word 0" in v and "core 1" in v and "registry points at 0" in v
            for v in violations
        )

    def test_untracked_valid_word_detected(self):
        protocol = _denovo(level="off")
        protocol.now = STEP
        protocol.load(1, 0)  # core 1 caches word 0 Valid
        assert protocol.l1s[1].state_of(0, touch=False) is DeNovoState.VALID
        protocol.l1s[1]._valid_by_region.clear()  # desync the tracking
        violations = protocol.invariant_violations()
        assert any(
            "word 0" in v and "core 1" in v and "self-invalidation" in v
            for v in violations
        )

    def test_violation_carries_structured_fields(self):
        protocol = _denovo(level="off")
        protocol.now = STEP
        protocol.store(0, 0, 1, sync=True)
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

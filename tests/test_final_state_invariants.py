"""Structural-invariant audits on the final state of full workload runs.

The exhaustive verifier covers tiny scopes; these tests run *real*
kernels and applications to completion and then audit the protocol's
entire cache/directory/registry state for consistency through its
``invariant_violations`` (the checks of :mod:`repro.protocols.invariants`).
"""

import pytest

from repro.config import config_16
from repro.harness.runner import run_workload
from repro.mem.l1 import DeNovoState
from repro.protocols import protocol_names
from repro.workloads.base import KernelSpec
from repro.workloads.micro import FalseSharingMicro
from repro.workloads.registry import make_kernel

KERNELS = [
    ("tatas", "counter"),
    ("array", "single Q"),
    ("mcs", "stack"),
    ("nonblocking", "M-S queue"),
    ("nonblocking", "Treiber stack"),
    ("barrier", "central"),
]


@pytest.mark.parametrize("figure,name", KERNELS)
@pytest.mark.parametrize("protocol", list(protocol_names()))
class TestKernelFinalState:
    def test_protocol_state_consistent_after_run(self, figure, name, protocol):
        workload = make_kernel(figure, name, spec=KernelSpec(iterations=4, scale=1.0))
        result = run_workload(
            workload, protocol, config_16(), seed=11, keep_protocol=True
        )
        assert result.meta["protocol"].invariant_violations() == []


@pytest.mark.parametrize("protocol", list(protocol_names()))
class TestAppAndMicroFinalState:
    def test_app_model_state_consistent(self, protocol):
        from repro.workloads.apps import make_app

        result = run_workload(
            make_app("bodytrack", scale=0.05),
            protocol,
            __import__("repro.config", fromlist=["config_for_cores"]).config_for_cores(16),
            seed=11,
            keep_protocol=True,
        )
        assert result.meta["protocol"].invariant_violations() == []

    def test_false_sharing_micro_state_consistent(self, protocol):
        result = run_workload(
            FalseSharingMicro(rounds=8), protocol, config_16(), seed=11,
            keep_protocol=True,
        )
        assert result.meta["protocol"].invariant_violations() == []


class TestAuditCatchesCorruption:
    def test_denovo_double_registration_detected(self):
        from repro.protocols.denovosync0 import DeNovoSync0Protocol

        protocol = DeNovoSync0Protocol(config_16())
        protocol.store(0, 100, 1)
        # Corrupt: a second L1 claims Registered without the registry.
        protocol.l1s[1].fill_word(100, 1, DeNovoState.REGISTERED)
        assert any(
            "holds a Registered copy but the registry points at" in f
            for f in protocol.invariant_violations()
        )

    def test_mesi_unknown_holder_detected(self):
        from repro.mem.l1 import MesiState
        from repro.protocols.mesi import MesiProtocol

        protocol = MesiProtocol(config_16())
        protocol.load(0, 100)
        # Corrupt: a copy the directory never granted.
        protocol.l1s[3].insert(protocol.amap.line_of(100), MesiState.SHARED)
        failures = protocol.invariant_violations()
        assert any("coexists with copies at cores [3]" in f for f in failures)

    @pytest.mark.parametrize("protocol", ["DeNovoSync", "Neat"])
    def test_valid_word_missing_from_region_tracking_detected(self, protocol):
        """A Valid word its L1 no longer tracks would escape every
        self-invalidation of its region."""
        from repro.workloads.apps import make_app

        result = run_workload(
            make_app("LU", scale=0.02), protocol, config_16(), seed=11,
            keep_protocol=True,
        )
        state = result.meta["protocol"]
        assert state.invariant_violations() == []
        core, l1, addr = next(
            (core, l1, addr)
            for core, l1 in enumerate(state.l1s)
            for addr, st in l1.words_and_states()
            if st is DeNovoState.VALID
        )
        for bucket in l1._valid_by_region.values():
            bucket.discard(addr)
        assert state.invariant_violations() == [
            f"word {addr}: Valid at core {core} but missing from its "
            f"self-invalidation region tracking"
        ]

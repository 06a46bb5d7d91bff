"""One protocol boundary: tracing, fault injection and runtime audits are
:class:`~repro.protocols.base.ProtocolWrapper` subclasses.

A wrapped run must simulate exactly what the bare protocol does, must
never take a spin lease (a lease tick would skip the wrapper's
per-access work), and every wrapper stack must look like one protocol to
the cores, the runner and the hang dumps.
"""

import pytest

from repro.config import config_for_cores
from repro.harness.diagnostics import build_dump
from repro.harness.runner import run_workload
from repro.noc.faults import FaultInjector, FaultPlan
from repro.protocols import make_protocol
from repro.protocols.invariants import InvariantAudit
from repro.sim.engine import Simulator
from repro.trace.recorder import TracingProtocol
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

#: Attributes the hand-written proxies used to re-forward one by one.
FORWARDED = (
    "name", "config", "memory", "traffic", "counters", "now", "allocator",
    "sync_read_backoff", "subscribe_line_change", "check_invariants",
    "invariant_violations", "force_evict", "debug_resident_lines",
    "debug_addr_state",
)


def _neat_counter(level="off", **options):
    """Neat is the one backend that leases its spin polls."""
    workload = make_kernel("tatas", "counter", spec=KernelSpec(scale=0.05))
    config = config_for_cores(16, invariant_level=level)
    return run_workload(workload, "Neat", config, seed=1, **options)


class TestWrappedRunsNeverLease:
    def test_bare_run_leases(self):
        assert _neat_counter().meta["epoch"]["spin_polls_elided"] > 0

    @pytest.mark.parametrize(
        "level,trace",
        [("off", True), ("full", False), ("full", True)],
        ids=["tracing", "audit", "tracing+audit"],
    )
    def test_wrapped_run_matches_the_bare_run(self, level, trace):
        bare = _neat_counter()
        wrapped = _neat_counter(level, trace=trace)
        assert wrapped.summary() == bare.summary()
        assert wrapped.counters.as_dict() == bare.counters.as_dict()
        assert wrapped.meta["epoch"]["spin_polls_elided"] == 0

    def test_faulted_run_never_leases(self):
        result = _neat_counter(fault_plan=FaultPlan(seed=1, delay_jitter=4))
        assert result.meta["fault_injector"].injected_delay > 0
        assert result.meta["epoch"]["spin_polls_elided"] == 0


class TestOneBoundary:
    def test_setting_now_on_any_stack_reaches_the_bare_protocol(self):
        bare = make_protocol("MESI", config_for_cores(4))
        plan = FaultPlan(seed=1, delay_jitter=2)
        stacks = [
            TracingProtocol(bare),
            FaultInjector(bare, plan),
            InvariantAudit(bare),
            TracingProtocol(FaultInjector(InvariantAudit(bare), plan)),
        ]
        for cycle, stack in enumerate(stacks, start=1):
            stack.now = 100 * cycle
            assert bare.now == stack.now == 100 * cycle
            assert stack.memory is bare.memory
            assert stack.name == "MESI"

    @pytest.mark.parametrize("wrapper", [TracingProtocol, FaultInjector])
    def test_wrappers_forward_instead_of_redefining(self, wrapper):
        assert not set(FORWARDED) & set(vars(wrapper))

    def test_fault_injector_dump_lists_its_plan_once_then_each_transient(self):
        syncron = make_protocol("SynCron", config_for_cores(4))
        syncron.now = 100
        syncron.rmw(0, 64, lambda old: old + 1)
        syncron.subscribe_line_change(1, 64, lambda wake: None)  # parks core 1
        transients = syncron.debug_transients()
        assert transients  # a busy sync unit and a parked core
        injector = FaultInjector(syncron, FaultPlan(seed=1, delay_jitter=4))
        for outermost in (injector, TracingProtocol(injector)):
            dump = build_dump(Simulator(), [], outermost, "probe")
            assert dump.protocol == "SynCron"
            assert dump.transients[0].startswith("fault plan: seed=1 ")
            assert dump.transients[1:] == transients

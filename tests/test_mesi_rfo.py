"""Tests for the MESI read-for-ownership extension."""

import pytest

from repro.config import config_16
from repro.harness.runner import run_workload
from repro.mem.l1 import MesiState
from repro.protocols.mesi_rfo import MesiRfoProtocol
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

ADDR = 100


@pytest.fixture
def proto():
    return MesiRfoProtocol(config_16())


class TestRfoSemantics:
    def test_sync_read_takes_ownership(self, proto):
        proto.load(0, ADDR, sync=True)
        line = proto.amap.line_of(ADDR)
        assert proto.l1s[0].state_of(line) is MesiState.MODIFIED
        assert proto.counters.get("rfo_sync_reads") == 1

    def test_data_read_unchanged(self, proto):
        proto.load(0, ADDR)
        line = proto.amap.line_of(ADDR)
        assert proto.l1s[0].state_of(line) is MesiState.EXCLUSIVE

    def test_write_after_sync_read_hits(self, proto):
        proto.load(0, ADDR, sync=True)
        _, _, hit, _ = proto.store(0, ADDR, 1, sync=True)
        assert hit  # the array-lock flag-reset effect

    def test_sync_readers_invalidate_each_other(self, proto):
        proto.load(0, ADDR, sync=True)
        proto.now = 1000
        proto.load(1, ADDR, sync=True)
        line = proto.amap.line_of(ADDR)
        assert proto.l1s[0].state_of(line) is None  # R-R ping-pong
        assert proto.l1s[1].state_of(line) is MesiState.MODIFIED

    def test_sync_read_sees_latest_value(self, proto):
        proto.store(0, ADDR, 7, sync=True)
        proto.now = 1000
        assert proto.load(1, ADDR, sync=True)[0] == 7


class TestRfoEndToEnd:
    @pytest.mark.parametrize("figure", ["tatas", "array"])
    def test_counter_kernel_correct(self, figure):
        workload = make_kernel(figure, "counter", spec=KernelSpec(iterations=3))
        result = run_workload(
            workload, "MESI-RFO", config_16(), seed=3, keep_protocol=True
        )
        assert result.meta["protocol"].memory.read(workload.counter.addr) == 48

    def test_rfo_saves_the_array_lock_write_miss(self):
        """Section 6.1.2: the flag-reset write after an array-lock acquire
        is a separate ownership request under plain MESI but a hit under
        RFO (and under DeNovo)."""
        spec = KernelSpec(scale=0.05)
        base = run_workload(
            make_kernel("array", "counter", spec=spec), "MESI", config_16(), seed=1
        )
        rfo = run_workload(
            make_kernel("array", "counter", spec=spec), "MESI-RFO", config_16(), seed=1
        )
        assert rfo.cycles <= base.cycles

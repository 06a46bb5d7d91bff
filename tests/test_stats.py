"""Tests for time decomposition, counters, and run results."""

import pytest

from repro.noc.messages import MessageClass
from repro.noc.traffic import TrafficLedger
from repro.stats.collector import ProtocolCounters, RunResult
from repro.stats.timeparts import TimeBreakdown, TimeComponent


class TestTimeBreakdown:
    def test_add_and_get(self):
        tb = TimeBreakdown()
        tb.add(TimeComponent.COMPUTE, 10)
        tb.add(TimeComponent.COMPUTE, 5)
        tb.add(TimeComponent.MEMORY_STALL, 3)
        assert tb.get(TimeComponent.COMPUTE) == 15
        assert tb.total() == 18

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add(TimeComponent.COMPUTE, -1)

    def test_as_dict_covers_all_components(self):
        assert set(TimeBreakdown().as_dict()) == {c.value for c in TimeComponent}

    def test_average(self):
        a, b = TimeBreakdown(), TimeBreakdown()
        a.add(TimeComponent.COMPUTE, 10)
        b.add(TimeComponent.COMPUTE, 20)
        avg = TimeBreakdown.average([a, b])
        assert avg["compute"] == 15.0

    def test_average_empty(self):
        assert TimeBreakdown.average([])["compute"] == 0.0

    def test_merged_with(self):
        a, b = TimeBreakdown(), TimeBreakdown()
        a.add(TimeComponent.COMPUTE, 10)
        b.add(TimeComponent.SW_BACKOFF, 7)
        merged = a.merged_with(b)
        assert merged.get(TimeComponent.COMPUTE) == 10
        assert merged.get(TimeComponent.SW_BACKOFF) == 7

    def test_merged_with_preserves_zero_cycle_components(self):
        # An explicitly-tracked zero-cycle component must survive the merge
        # (Counter.__add__ would silently drop it).
        a, b = TimeBreakdown(), TimeBreakdown()
        a.add(TimeComponent.HW_BACKOFF, 0)
        b.add(TimeComponent.COMPUTE, 3)
        merged = a.merged_with(b)
        assert "hw backoff" in merged.as_dict()
        assert merged.get(TimeComponent.HW_BACKOFF) == 0
        assert merged.total() == 3


class TestProtocolCounters:
    def test_bump_and_get(self):
        counters = ProtocolCounters()
        counters.bump("l1_misses")
        counters.bump("l1_misses", 4)
        assert counters.get("l1_misses") == 5
        assert counters.get("never") == 0
        # A read never inserts a key (a digest taken after it would
        # otherwise include the key), while a zero bump still does.
        assert "never" not in counters.as_dict()
        counters.bump("z", 0)
        assert counters.as_dict() == {"l1_misses": 5, "z": 0}

    def test_as_dict(self):
        counters = ProtocolCounters()
        counters.bump("x", 3)
        assert counters.as_dict() == {"x": 3}


def _result(cycles=100):
    tb = TimeBreakdown()
    tb.add(TimeComponent.COMPUTE, 40)
    tb.add(TimeComponent.MEMORY_STALL, 60)
    ledger = TrafficLedger()
    ledger.record(MessageClass.LOAD, 10, 2)
    return RunResult(
        workload="w",
        protocol="MESI",
        num_cores=1,
        cycles=cycles,
        per_core_time=[tb],
        traffic=ledger,
        counters=ProtocolCounters(),
    )


class TestRunResult:
    def test_summary_fields(self):
        summary = _result().summary()
        assert summary["workload"] == "w"
        assert summary["cycles"] == 100
        assert summary["total_traffic"] == 20
        assert summary["time_breakdown"]["compute"] == 40

    def test_component_cycles(self):
        assert _result().component_cycles(TimeComponent.MEMORY_STALL) == 60.0

    def test_traffic_breakdown(self):
        assert _result().traffic_breakdown()["LD"] == 20

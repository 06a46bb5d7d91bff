"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(30, lambda: fired.append(30))
        sim.schedule_at(10, lambda: fired.append(10))
        sim.schedule_at(20, lambda: fired.append(20))
        sim.run()
        assert fired == [10, 20, 30]

    def test_same_cycle_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule_at(7, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.schedule_at(5, lambda: sim.schedule_after(10, lambda: times.append(sim.now)))
        sim.run()
        assert times == [15]

    def test_now_tracks_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_after(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(10, lambda: fired.append("no"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule_at(10, lambda: None)
        sim.schedule_at(20, lambda: None)
        assert sim.pending_events == 2
        event.cancel()
        assert sim.pending_events == 1


class TestPendingEventsCounter:
    """``pending_events`` is a live counter (O(1)), with heap compaction
    once cancelled events dominate the queue."""

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule_at(10, lambda: None)
        sim.schedule_at(20, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_events == 1

    def test_counter_tracks_fired_events(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(t, lambda: None)
        assert sim.pending_events == 5
        sim.run()
        assert sim.pending_events == 0

    def test_counter_with_mixed_cancel_and_fire(self):
        sim = Simulator()
        events = [sim.schedule_at(t, lambda: None) for t in range(10)]
        for event in events[::2]:
            event.cancel()
        assert sim.pending_events == 5
        sim.run()
        assert sim.pending_events == 0

    def test_compaction_shrinks_queue(self):
        sim = Simulator()
        keep = sim.schedule_at(1000, lambda: None)
        doomed = [
            sim.schedule_at(10 + t, lambda: None)
            for t in range(sim.COMPACT_MIN_SIZE * 2)
        ]
        for event in doomed:
            event.cancel()
        # Cancelled events dominate: compaction must have kept the queue
        # from retaining every tombstone (it shrinks whenever live
        # entries fall below half of a COMPACT_MIN_SIZE-or-larger side).
        assert sim.pending_events == 1
        assert sim._retained_entries() < sim.COMPACT_MIN_SIZE
        assert not keep.cancelled
        fired = []
        sim.schedule_at(1001, lambda: fired.append(1))
        sim.run()
        assert fired == [1]

    def test_small_queues_are_not_compacted(self):
        sim = Simulator()
        events = [sim.schedule_at(10 + t, lambda: None) for t in range(4)]
        for event in events[:3]:
            event.cancel()
        # Below COMPACT_MIN_SIZE the tombstones stay (compaction would
        # cost more than it saves) but the counter is still exact.
        assert sim.pending_events == 1
        assert sim._retained_entries() == 4


class TestRunLimits:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append(10))
        sim.schedule_at(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10]
        sim.run()
        assert fired == [10, 100]

    def test_until_advances_clock(self):
        # run(until=t) must leave now == t, not at the last fired event,
        # so a subsequent schedule_at(t - k) is rejected as in-the-past.
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        sim.schedule_at(100, lambda: None)
        sim.run(until=50)
        assert sim.now == 50
        with pytest.raises(ValueError):
            sim.schedule_at(40, lambda: None)

    def test_until_advances_clock_on_empty_queue(self):
        sim = Simulator()
        assert sim.run(until=30) == 0
        assert sim.now == 30

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(50, lambda: fired.append(50))
        sim.schedule_at(51, lambda: fired.append(51))
        sim.run(until=50)
        assert fired == [50]
        assert sim.now == 50

    def test_stale_until_does_not_rewind_clock(self):
        sim = Simulator()
        sim.schedule_at(40, lambda: None)
        sim.run()
        assert sim.now == 40
        sim.run(until=10)
        assert sim.now == 40

    def test_until_then_resume_is_seamless(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append(10))
        sim.schedule_at(100, lambda: fired.append(100))
        sim.run(until=50)
        sim.schedule_at(60, lambda: fired.append(60))
        sim.run()
        assert fired == [10, 60, 100]

    def test_max_events_raises(self):
        sim = Simulator()

        def reschedule():
            sim.schedule_after(1, reschedule)

        sim.schedule_at(0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)

    def test_max_events_fires_exactly_that_many(self):
        sim = Simulator()
        fired = []
        for t in range(5):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_does_not_advance_clock_to_until(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(t, lambda: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(until=100, max_events=2)
        assert sim.now == 1  # last fired event, not until

    def test_max_events_zero_with_pending_events_raises(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=0)

    def test_run_returns_event_count(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(t, lambda: None)
        assert sim.run() == 5

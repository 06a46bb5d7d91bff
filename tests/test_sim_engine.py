"""Tests for the discrete-event engine."""

import inspect
from functools import partial

import pytest

import repro.sim
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_at(30, fired.append, 30)
        sim.call_at(10, fired.append, 10)
        sim.call_at(20, fired.append, 20)
        sim.run()
        assert fired == [10, 20, 30]

    def test_same_cycle_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.call_at(7, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_call_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.call_at(5, lambda _: sim.call_after(10, lambda _: times.append(sim.now)))
        sim.run()
        assert times == [15]

    def test_callback_always_gets_its_arg(self):
        sim = Simulator()
        seen = []
        sim.call_at(1, seen.append)
        sim.call_after(2, seen.append, "arg")
        sim.run()
        assert seen == [None, "arg"]

    def test_now_tracks_event_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(42, lambda _: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(10, lambda _: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(5, lambda _: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_after(-1, lambda _: None)

    def test_call_at_the_current_cycle_is_allowed(self):
        sim = Simulator()
        seen = []
        sim.call_at(10, lambda _: sim.call_at(10, seen.append, sim.now))
        sim.run()
        assert seen == [10]

    def test_call_at_and_call_after_share_one_sequence(self):
        """Entries due in the same cycle fire in schedule order whichever
        call queued them, including one scheduled from inside the run."""
        sim = Simulator()
        fired = []

        def first(_):
            fired.append("first")
            sim.call_after(3, fired.append, "from-callback")

        sim.call_at(2, first)
        sim.call_after(5, fired.append, "after")
        sim.call_at(5, fired.append, "at")
        sim.run()
        assert fired == ["first", "after", "at", "from-callback"]

    def test_event_for_now_runs_after_its_queued_peers(self):
        sim = Simulator()
        fired = []
        sim.call_at(4, lambda _: sim.call_after(0, fired.append, "follow-up"))
        sim.call_at(4, fired.append, "peer")
        sim.run()
        assert fired == ["peer", "follow-up"]
        assert sim.now == 4


class TestPendingEventsCounter:
    def test_counter_tracks_fired_events(self):
        sim = Simulator()
        for t in range(5):
            sim.call_at(t, lambda _: None)
        assert sim.pending_events == 5
        sim.run()
        assert sim.pending_events == 0

    def test_counter_inside_a_callback_excludes_the_firing_event(self):
        sim = Simulator()
        seen = []

        def probe(_):
            seen.append(sim.pending_events)
            if len(seen) == 1:
                sim.call_after(1, probe)

        sim.call_at(0, probe)
        sim.call_at(5, lambda _: None)
        sim.run()
        assert seen == [1, 1]


class TestRunLimits:
    def test_max_events_raises(self):
        sim = Simulator()

        def reschedule(_):
            sim.call_after(1, reschedule)

        sim.call_at(0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)

    def test_max_events_fires_exactly_that_many(self):
        sim = Simulator()
        fired = []
        for t in range(5):
            sim.call_at(t, fired.append, t)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_zero_with_pending_events_raises(self):
        sim = Simulator()
        sim.call_at(10, lambda _: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=0)

    def test_max_events_spent_on_a_drained_queue_returns(self):
        sim = Simulator()
        for t in range(3):
            sim.call_at(t, lambda _: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending_events == 0

    def test_max_events_trip_leaves_clock_at_last_fired_event(self):
        sim = Simulator()
        for t in range(0, 50, 10):
            sim.call_at(t, lambda _: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=2)
        assert sim.now == 10
        assert sim.pending_events == 3

    def test_max_events_trip_then_resume_is_seamless(self):
        sim = Simulator()
        fired = []
        sim.call_at(10, fired.append, 10)
        sim.call_at(100, fired.append, 100)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=1)
        sim.call_at(60, fired.append, 60)
        assert sim.run() == 2
        assert fired == [10, 60, 100]

    def test_run_returns_event_count(self):
        sim = Simulator()
        for t in range(5):
            sim.call_at(t, lambda _: None)
        assert sim.run() == 5

    def test_run_on_an_empty_queue_keeps_the_clock(self):
        sim = Simulator()
        sim.call_at(40, lambda _: None)
        sim.run()
        assert sim.run() == 0
        assert sim.run(max_events=0) == 0
        assert sim.now == 40


class TestEpochStats:
    """The keys the end-to-end benchmark reads: ``epochs`` counts the cycles
    the clock advanced to, ``events_batched`` the events fired."""

    def test_counts_fired_events_and_clock_advances(self):
        sim = Simulator()
        for t in (0, 0, 5, 5, 9):
            sim.call_at(t, lambda _: None)
        sim.run()
        stats = sim.epoch_stats
        assert stats["epochs"] == 2
        assert stats["events_batched"] == 5
        assert stats["spin_polls_elided"] == 0
        assert stats["fallbacks"] == {}

    def test_counters_include_an_interrupted_run(self):
        sim = Simulator()
        for t in range(1, 6):
            sim.call_at(t, lambda _: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=3)
        assert sim.epoch_stats["events_batched"] == 3
        assert sim.epoch_stats["epochs"] == 3
        sim.run()
        assert sim.epoch_stats["events_batched"] == 5
        assert sim.epoch_stats["epochs"] == 5


class TestWatches:
    """``watch_at`` polls in the run loop; each poll is one event."""

    @staticmethod
    def _watch(sim, cell, time=5, period=10, callback=None):
        fired = []
        sim.watch_at(
            time, period, partial(cell.get, "x"), 0,
            callback or (lambda arg: fired.append((sim.now, arg))), "arg",
        )
        return fired

    def test_the_first_changed_poll_fires_the_callback(self):
        sim = Simulator()
        cell = {"x": 0}
        fired = self._watch(sim, cell)
        sim.call_at(32, lambda _: cell.update(x=1))
        # Polls at 5, 15, 25 and 35; the last one sees the change.
        assert sim.run() == 5
        assert fired == [(35, "arg")]

    def test_a_flip_and_back_between_polls_is_not_seen(self):
        sim = Simulator()
        cell = {"x": 0}
        fired = self._watch(sim, cell)
        sim.call_at(16, lambda _: cell.update(x=1))
        sim.call_at(24, lambda _: cell.update(x=0))
        sim.call_at(47, lambda _: cell.update(x=2))
        sim.run()
        assert fired == [(55, "arg")]

    def test_a_poll_fires_after_same_cycle_events_queued_before_it(self):
        """A requeued poll takes a fresh sequence number when its
        predecessor fires, exactly as a self-rescheduling callback."""
        sim = Simulator()
        cell = {"x": 0}
        fired = self._watch(sim, cell)
        sim.call_at(15, lambda _: cell.update(x=1))  # queued before the poll at 15
        sim.run()
        assert fired == [(15, "arg")]

        sim = Simulator()
        cell = {"x": 0}
        fired = self._watch(sim, cell)
        # Queued at cycle 6, after the poll for cycle 15 was queued at 5.
        sim.call_at(6, lambda _: sim.call_at(15, lambda _: cell.update(x=1)))
        sim.run()
        assert fired == [(25, "arg")]

    def test_each_poll_counts_as_a_fired_event(self):
        sim = Simulator()
        cell = {"x": 0}
        self._watch(sim, cell, time=0, period=1)
        sim.call_at(99, lambda _: cell.update(x=1))
        # Polls at 0..99 (100 events, the last one firing the callback)
        # plus the flip at 99, which was queued before the poll at 99.
        assert sim.run() == 101
        stats = sim.epoch_stats
        assert stats["events_batched"] == 101
        assert stats["epochs"] == 99

    def test_each_poll_counts_against_max_events(self):
        sim = Simulator()
        cell = {"x": 0}
        fired = self._watch(sim, cell, time=0, period=1)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=50)
        assert sim.now == 49
        assert sim.pending_events == 1
        assert sim.epoch_stats["events_batched"] == 50
        cell["x"] = 1
        assert sim.run() == 1
        assert fired == [(50, "arg")]

    def test_a_callback_exception_carries_the_event_note(self):
        sim = Simulator()
        cell = {"x": 0}

        def boom(_arg):
            raise KeyError("boom")

        self._watch(sim, cell, time=3, period=4, callback=boom)
        sim.call_at(5, lambda _: cell.update(x=1))
        with pytest.raises(KeyError) as excinfo:
            sim.run()
        (note,) = excinfo.value.__notes__
        assert "at cycle 7" in note
        assert "scheduled at cycle 3" in note
        assert sim.pending_events == 0

    def test_watch_rejects_the_past_and_a_non_positive_period(self):
        sim = Simulator()
        sim.call_at(10, lambda _: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.watch_at(5, 1, int, 0, print)
        with pytest.raises(ValueError, match="period"):
            sim.watch_at(10, 0, int, 0, print)
        assert sim.pending_events == 0


class TestApiSurface:
    """Scheduling is ``call_at``/``call_after`` (and ``watch_at``)
    firing ``callback(arg)``: no event handles, no run horizon, no
    scheduling hook on the engine."""

    def test_package_exports_no_event_type(self):
        assert "Event" not in repro.sim.__all__
        assert not hasattr(repro.sim.engine, "Event")

    def test_run_takes_only_max_events(self):
        assert list(inspect.signature(Simulator.run).parameters) == ["self", "max_events"]

    def test_calls_return_no_handle(self):
        sim = Simulator()
        assert sim.call_at(1, lambda _: None) is None
        assert sim.call_after(1, lambda _: None) is None
        assert sim.watch_at(1, 1, int, 1, lambda _: None) is None

"""Discrete-event simulation engine.

All simulated activity is ordered through one binary heap (:mod:`heapq`)
of tuple entries ``(time, seq, callback, arg, scheduled_at)``; firing an
entry calls ``callback(arg)``.  The sequence number makes runs
deterministic: events due in the same cycle fire in the order they were
scheduled.  (time, seq) is unique, so the heap's C-speed tuple comparison
never reaches the other fields and yields (cycle, seq) order by
construction.  Nothing cancels an entry, so every queued entry is live.

A *watch* (:meth:`Simulator.watch_at`) is an ordinary entry whose
callback is the simulator's own :meth:`Simulator._poll_watch`: it polls,
and either reschedules itself one period on or calls the watch's
callback, exactly as a callback that polls and reschedules itself
through :meth:`Simulator.call_after` would.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush

from repro.sim.watchdog import CHECK_INTERVAL

#: "No limit" in the run loop's integer comparisons.
_NEVER = 1 << 62


def _note(entry: tuple) -> str:
    return (
        f"[sim] while firing event seq={entry[1]} at cycle "
        f"{entry[0]} (scheduled at cycle {entry[4]})"
    )


class Simulator:
    """A minimal deterministic discrete-event simulator: ``call_at`` and
    ``call_after`` schedule ``callback(arg)``, ``watch_at`` schedules a
    periodic poll that ends in one; :meth:`run` fires them."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self.now = 0
        #: Cycle of the latest retired operation (cores stamp it), for the
        #: liveness :class:`~repro.sim.watchdog.Watchdog` that :meth:`run`
        #: polls every ``CHECK_INTERVAL`` events when set.
        self.progress_cycle = 0
        self.watchdog = None
        # Counters for epoch_stats; cores bump _spin_polls_elided.
        self._epochs = 0
        self._fired = 0
        self._spin_polls_elided = 0
        self._cb_poll_watch = self._poll_watch

    def call_at(self, time: int, callback: Callable, arg=None) -> None:
        """Schedule ``callback(arg)`` at absolute cycle ``time``."""
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past ({time} < {now})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, callback, arg, now))

    def call_after(self, delay: int, callback: Callable, arg=None) -> None:
        """:meth:`call_at` relative to now, inlined: cores schedule nearly
        every event through here."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        now = self.now
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (now + delay, seq, callback, arg, now))

    def watch_at(
        self,
        time: int,
        period: int,
        poll: Callable[[], object],
        expected,
        callback: Callable,
        arg=None,
    ) -> None:
        """From cycle ``time``, every ``period`` cycles, call ``poll()``
        until its result differs from ``expected``; then call
        ``callback(arg)`` in that same event.

        Each poll is one fired event.  ``poll`` must have no side effect
        on the simulation; a builtin-backed one (such as
        ``functools.partial(dict.get, ...)``) keeps an unchanged poll to
        one Python frame, :meth:`_poll_watch`.
        """
        if period < 1:
            raise ValueError(f"watch period must be positive, got {period}")
        self.call_at(
            time, self._cb_poll_watch, (poll, expected, period, callback, arg)
        )

    def _poll_watch(self, watch: tuple) -> None:
        """One poll of a :meth:`watch_at` watch, ``(poll, expected,
        period, callback, arg)``."""
        if watch[0]() == watch[1]:
            # call_after, inlined: an elided spin poll runs this one frame.
            now = self.now
            seq = self._seq
            self._seq = seq + 1
            heappush(
                self._heap, (now + watch[2], seq, self._cb_poll_watch, watch, now)
            )
        else:
            watch[3](watch[4])

    def run(self, max_events: int | None = None) -> int:
        """Run events until the queue drains; return the event count.

        Each watch poll counts as one event.  Past ``max_events`` fired, a
        still-queued event raises without touching the clock.  A callback
        exception propagates with a PEP 678 note naming the event.  Either
        way, the queued events stay pending.
        """
        watchdog = self.watchdog
        poll_at = _NEVER if watchdog is None else CHECK_INTERVAL
        budget = _NEVER if max_events is None else max_events
        heap = self._heap
        now = self.now
        advanced = 0
        # One countdown to the next stop (watchdog poll or spent budget);
        # the events fired so far number stop_at - countdown.
        stop_at = countdown = min(poll_at, budget)
        try:
            while True:
                if not countdown:
                    if stop_at == poll_at:
                        watchdog.check()
                        poll_at += CHECK_INTERVAL
                    if stop_at == budget:
                        if heap:
                            raise RuntimeError(
                                f"simulation exceeded max_events={max_events} at cycle {now}"
                            )
                        break
                    countdown = min(poll_at, budget) - stop_at
                    stop_at += countdown
                if not heap:
                    break
                entry = heappop(heap)
                time = entry[0]
                if time != now:
                    self.now = now = time
                    advanced += 1
                try:
                    entry[2](entry[3])
                except Exception as exc:
                    exc.add_note(_note(entry))
                    raise
                countdown -= 1
        finally:
            self._epochs += advanced
            self._fired += stop_at - countdown
        return stop_at - countdown

    @property
    def epoch_stats(self) -> dict:
        """Counters over every run: ``epochs``, cycles the clock advanced to;
        ``events_batched``, events fired (watch polls included);
        ``spin_polls_elided``, spin probes replaced by lease polls;
        ``fallbacks``, always empty (legacy key)."""
        return {
            "epochs": self._epochs,
            "events_batched": self._fired,
            "spin_polls_elided": self._spin_polls_elided,
            "fallbacks": {},
        }

    @property
    def pending_events(self) -> int:
        """Number of queued events."""
        return len(self._heap)

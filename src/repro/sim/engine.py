"""Discrete-event simulation engine.

All simulated activity is ordered through one binary heap (:mod:`heapq`)
of plain-list entries ``[time, seq, callback, arg, scheduled_at]``.  The
sequence number makes runs deterministic: events due in the same cycle
fire in the order they were scheduled.  (time, seq) is unique, so the
heap's C-speed list comparison never reaches the other fields and yields
(cycle, seq) order by construction.  ``callback`` is None once an entry
fired or was cancelled; a cancelled entry stays queued as a tombstone.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heapify, heappop, heappush

#: Sentinel ``arg`` meaning "invoke the callback with no argument".
_NO_ARG = object()

#: "No limit" in the run loop's integer comparisons.
_NEVER = 1 << 62


def _note(entry: list) -> str:
    return (
        f"[sim] while firing event seq={entry[1]} at cycle "
        f"{entry[0]} (scheduled at cycle {entry[4]})"
    )


class Event:
    """Cancellable handle of a scheduled callback (a no-op once fired)."""

    __slots__ = ("_entry", "_sim", "_cancelled")

    def __init__(self, entry: list, sim: Simulator):
        self._entry = entry
        self._sim = sim
        self._cancelled = False

    @property
    def time(self) -> int:
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        if self._entry[2] is None:  # already fired or cancelled
            return
        self._cancelled = True
        self._entry[2] = None
        self._sim._event_cancelled()


class Simulator:
    """A minimal deterministic discrete-event simulator: ``call_*`` schedule
    hot-path ``(callback, arg)`` pairs, ``schedule_*`` return an :class:`Event`."""

    #: Compact a heap this large once cancelled entries outnumber live ones.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._dead = 0  # cancelled tombstones still in the heap
        self._seq = 0
        self.now = 0
        #: Cycle of the latest retired operation (cores stamp it), for the
        #: liveness :class:`~repro.sim.watchdog.Watchdog` that :meth:`run`
        #: polls every ``watchdog.check_interval`` events when set.
        self.progress_cycle = 0
        self.watchdog = None
        #: Optional :class:`~repro.mc.controller.ScheduleController`: when
        #: set, cores park at each visible memory operation until released.
        self.controller = None
        # Counters for epoch_stats; cores bump _spin_polls_elided.
        self._epochs = 0
        self._fired = 0
        self._spin_polls_elided = 0

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time``; returns a handle."""
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past ({time} < {now})")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, _NO_ARG, now]
        heappush(self._heap, entry)
        return Event(entry, self)

    def schedule_after(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback)

    def call_at(self, time: int, callback: Callable, arg=_NO_ARG) -> None:
        """Hot-path schedule of ``callback(arg)`` (``callback()`` when
        ``arg`` is omitted) at ``time``; no handle, so no cancel."""
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past ({time} < {now})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, [time, seq, callback, arg, now])

    def call_after(self, delay: int, callback: Callable, arg=_NO_ARG) -> None:
        """:meth:`call_at` relative to now, inlined: cores schedule nearly
        every event through here."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        now = self.now
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, [now + delay, seq, callback, arg, now])

    def _event_cancelled(self) -> None:
        """Count a tombstone; once they outnumber live entries, rebuild the
        heap from the survivors (amortized O(1) per cancel), in place
        because :meth:`run` holds the list."""
        self._dead += 1
        heap = self._heap
        if len(heap) >= self.COMPACT_MIN_SIZE and self._dead * 2 > len(heap):
            heap[:] = [e for e in heap if e[2] is not None]
            heapify(heap)
            self._dead = 0

    def _head(self) -> list | None:
        """The earliest live entry, left queued (tombstones above it go)."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        return heap[0] if heap else None

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains (or limits hit); return event count.

        ``until`` stops before the first event due after it, then advances
        ``now`` to ``until`` unless that is in the past.  Past ``max_events``
        fired, a fireable event raises without touching the clock.  A
        callback exception propagates with a PEP 678 note naming the event.
        Either way, the queued events stay pending.
        """
        watchdog = self.watchdog
        poll_at = interval = _NEVER
        if watchdog is not None:
            poll_at = interval = watchdog.check_interval
            if interval < 1:
                raise ValueError(f"watchdog check_interval must be >= 1, got {interval!r}")
        budget = _NEVER if max_events is None else max_events
        limit = _NEVER if until is None else until
        heap = self._heap
        no_arg = _NO_ARG
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
                        poll_at += interval
                    if stop_at == budget:
                        head = self._head()
                        if head is not None and head[0] <= limit:
                            raise RuntimeError(
                                f"simulation exceeded max_events={max_events} at cycle {now}"
                            )
                        break
                    countdown = min(poll_at, budget) - stop_at
                    stop_at += countdown
                if not heap:
                    break
                entry = heappop(heap)
                callback = entry[2]
                if callback is None:  # cancelled: drop it, the clock stays put
                    self._dead -= 1
                    continue
                time = entry[0]
                if time > limit:
                    heappush(heap, entry)
                    break
                if time != now:
                    self.now = now = time
                    advanced += 1
                entry[2] = None
                arg = entry[3]
                try:
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
                except Exception as exc:
                    exc.add_note(_note(entry))
                    raise
                countdown -= 1
        finally:
            self._epochs += advanced
            self._fired += stop_at - countdown
        if until is not None and until > now:
            self.now = until
        return stop_at - countdown

    @property
    def epoch_stats(self) -> dict:
        """Counters over every run: ``epochs``, cycles the clock advanced to;
        ``events_batched``, events fired; ``spin_polls_elided``, spin probes
        replaced by lease ticks; ``fallbacks``, always empty (legacy key)."""
        return {
            "epochs": self._epochs,
            "events_batched": self._fired,
            "spin_polls_elided": self._spin_polls_elided,
            "fallbacks": {},
        }

    @property
    def pending_events(self) -> int:
        """Number of live (not fired, not cancelled) events — O(1)."""
        return len(self._heap) - self._dead

    def _retained_entries(self) -> int:
        """Entries held by the queue, tombstones included (test hook)."""
        return len(self._heap)

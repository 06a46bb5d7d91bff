"""Property-style differential test of the event queue, plus its contracts.

Drives random interleavings of ``call_at`` / ``call_after``, callbacks
that schedule follow-ups from inside the run, watches (``watch_at``) on
cells that other callbacks flip (A→B→A pulses included), and whole or
``max_events``-limited runs through the production
:class:`~repro.sim.engine.Simulator` and through :class:`SortedListQueue`,
a reference scheduler that keeps one list sorted with :func:`bisect.insort`
— a different algorithm from the engine's heap, with watches written as
callbacks that poll and reschedule themselves — asserting identical
firing order, poll order, ``now`` evolution and ``pending_events``
counts.

The op script is generated once per seed and replayed against both
queues, so any divergence is a scheduler bug, not test nondeterminism.
"""

import bisect
import random

import pytest

from repro.sim.engine import Simulator

#: Spread of schedule deltas: mostly small, some same-cycle, some far out
#: (multi-thousand-cycle backoffs, watchdog horizons).
_DELTAS = (0, 0, 1, 1, 2, 3, 7, 28, 140, 421, 900, 1023, 1024, 1500, 4095, 9000)
#: Watch and flip timing: near the watches' periods, so polls land
#: before, between and after flips (and on their cycles).
_WATCH_DELTAS = (0, 0, 1, 2, 3, 7, 28, 140)
_PERIODS = (1, 2, 3, 7, 28)
#: Watched cells (all 0 between runs) and the values flips write and
#: watches expect; a run_all sets every cell to _RELEASED after the last
#: flip, which no watch expects, so every watch ends.
_CELLS = 3
_VALUES = (0, 0, 1, 2)
_RELEASED = -1


class SortedListQueue:
    """Reference scheduler: one list of (time, seq, fn, arg) kept sorted."""

    def __init__(self):
        self.now, self._seq, self._queue = 0, 0, []

    def call_at(self, time, fn, arg=None):
        bisect.insort(self._queue, (time, self._seq, fn, arg))
        self._seq += 1

    def call_after(self, delay, fn, arg=None):
        self.call_at(self.now + delay, fn, arg)

    def watch_at(self, time, period, poll, expected, callback, arg=None):
        def tick(_):
            if poll() == expected:
                self.call_after(period, tick)
            else:
                callback(arg)

        self.call_at(time, tick)

    @property
    def pending_events(self):
        return len(self._queue)

    def run(self, max_events=None):
        fired = 0
        while self._queue:
            if fired == max_events:
                raise RuntimeError("max_events")
            time, _, fn, arg = self._queue.pop(0)
            self.now, fired = time, fired + 1
            fn(arg)
        return fired


def _make_script(seed, length):
    rng = random.Random(seed)
    script = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.30:
            script.append(("at", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.60:
            script.append(("after", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.82:
            # Fires, then schedules its next link from inside the run.
            follow = tuple(rng.choice(_DELTAS) for _ in range(1 + rng.randrange(3)))
            script.append(("chain", rng.choice(_DELTAS), follow, rng.randrange(1000)))
        elif roll < 0.92:
            script.append(("run_some", rng.randrange(1, 40)))
        else:
            script.append(("run_all",))
        # Watches, and the flips they wait for, ride along with the ops
        # above.
        roll = rng.random()
        if roll < 0.10:
            # A flip, or an A->B->A pulse that flips back ``back`` cycles on.
            back = rng.choice((None, 0, 1, 2, 5))
            script.append(
                ("flip", rng.choice(_WATCH_DELTAS), rng.randrange(_CELLS),
                 rng.choice(_VALUES), back)
            )
        elif roll < 0.20:
            # A watch, re-armed from its own callback once per later arm.
            arms = tuple(
                (rng.choice(_WATCH_DELTAS), rng.choice(_PERIODS), rng.choice(_VALUES))
                for _ in range(1 + rng.randrange(3))
            )
            script.append(("watch", rng.randrange(_CELLS), arms, rng.randrange(1000)))
    script.append(("run_all",))
    return script


def _apply(sim, script):
    """Replay ``script`` on ``sim``; return the firing log and checkpoints."""
    log = []
    checkpoints = []

    def fire(tag):
        log.append((tag, sim.now))

    def chain(link):
        tag, follow = link
        fire(tag)
        if follow:
            sim.call_after(follow[0], chain, ((tag, len(follow)), follow[1:]))

    cells = [0] * _CELLS
    # Latest cycle a scheduled flip (or its flip back) can land on.
    horizon = [0]

    def set_cell(write):
        cell, value = write
        log.append(("set", cell, value, sim.now))
        cells[cell] = value

    def pulse(flip):
        cell, value, back = flip
        old = cells[cell]
        set_cell((cell, value))
        if back is not None:
            sim.call_after(back, set_cell, (cell, old))

    def arm(watch):
        tag, cell, arms = watch
        delta, period, expected = arms[0]

        def poll():
            log.append(("poll", tag, sim.now))
            return cells[cell]

        sim.watch_at(
            sim.now + delta, period, poll, expected, changed, (tag, cell, arms[1:])
        )

    def changed(watch):
        tag, cell, rest = watch
        fire(("watch", tag))
        if rest:
            arm(((tag, len(rest)), cell, rest))

    for op in script:
        kind = op[0]
        if kind == "at":
            _, delta, tag = op
            sim.call_at(sim.now + delta, fire, ("at", tag))
        elif kind == "after":
            _, delta, tag = op
            sim.call_after(delta, fire, ("after", tag))
        elif kind == "chain":
            _, delta, follow, tag = op
            sim.call_after(delta, chain, (("chain", tag), follow))
        elif kind == "flip":
            _, delta, cell, value, back = op
            sim.call_at(sim.now + delta, pulse, (cell, value, back))
            horizon[0] = max(horizon[0], sim.now + delta + (back or 0))
        elif kind == "watch":
            _, cell, arms, tag = op
            arm((("watch", tag), cell, arms))
        elif kind == "run_some":
            try:
                fired = sim.run(max_events=op[1])
            except RuntimeError:
                fired = "limit"
            checkpoints.append(("some", fired, sim.now, sim.pending_events))
        elif kind == "run_all":
            # Release every cell after the last flip, so every watch ends.
            release = max(horizon[0], sim.now) + 1
            for cell in range(_CELLS):
                sim.call_at(release, set_cell, (cell, _RELEASED))
            fired = sim.run()
            checkpoints.append(("all", fired, sim.now, sim.pending_events))
            cells[:] = [0] * _CELLS
        checkpoints.append((sim.now, sim.pending_events))
    return log, checkpoints


@pytest.mark.parametrize("seed", range(120))
def test_engine_matches_sorted_list_reference(seed):
    script = _make_script(seed, 120)
    log, checks = _apply(Simulator(), script)
    ref_log, ref_checks = _apply(SortedListQueue(), script)
    assert checks == ref_checks
    assert log == ref_log


def test_far_ahead_event_outranks_later_scheduled_same_cycle_event():
    """A cross-core message sent 2000 cycles ahead is sequenced before the
    local chain's entry for its cycle, which is scheduled 2000 cycles
    later: same cycle, smaller seq, so the message fires first."""
    sim = Simulator()
    log = []

    def local(step):
        log.append(("local", sim.now))
        if step < 2500:
            sim.call_after(1, local, step + 1)
        if step == 5:
            sim.call_after(2000, message, None)

    def message(_):
        log.append(("message", sim.now))

    sim.call_after(0, local, 0)
    assert sim.run() == 2502
    position = log.index(("message", 2005))
    assert log[position - 1] == ("local", 2004)
    assert log[position + 1] == ("local", 2005)


@pytest.mark.parametrize("trip", ["exception", "max_events"])
def test_interrupted_run_leaves_rest_pending_and_resumes_in_order(trip):
    sim = Simulator()
    fired = []

    def fire(t):
        fired.append(t)
        if trip == "exception" and t == 2:
            raise KeyError("boom")

    for t in range(6):
        sim.call_at(t, fire, t)
    with pytest.raises(KeyError if trip == "exception" else RuntimeError):
        sim.run(max_events=3 if trip == "max_events" else None)
    assert fired == [0, 1, 2]
    assert sim.now == 2
    assert sim.pending_events == 3
    assert sim.run() == 3
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.pending_events == 0

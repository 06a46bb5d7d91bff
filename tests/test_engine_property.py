"""Property-style differential test of the event queue, plus its contracts.

Drives random interleavings of ``schedule_at`` / ``schedule_after`` /
``call_after`` / ``cancel`` / ``run(until=...)`` through the production
:class:`~repro.sim.engine.Simulator` and through :class:`SortedListQueue`,
a reference scheduler that keeps one list sorted with :func:`bisect.insort`
— a different algorithm from the engine's heap — asserting identical
firing order, ``now`` evolution and ``pending_events`` counts, including
cancel storms big enough to trip heap compaction.

The op script is generated once per seed and replayed against both
queues, so any divergence is a scheduler bug, not test nondeterminism.
"""

import bisect
import random
from types import SimpleNamespace

import pytest

from repro.sim.engine import Simulator

#: Spread of schedule deltas: mostly small, some same-cycle, some far out
#: (multi-thousand-cycle backoffs, watchdog horizons).
_DELTAS = (0, 0, 1, 1, 2, 3, 7, 28, 140, 421, 900, 1023, 1024, 1500, 4095, 9000)


class SortedListQueue:
    """Reference scheduler: one list of [time, seq, fn] kept sorted."""

    def __init__(self):
        self.now, self._seq, self._queue = 0, 0, []

    def schedule_at(self, time, fn):
        entry = [time, self._seq, fn]  # fn is None once cancelled
        self._seq += 1
        bisect.insort(self._queue, entry)
        return SimpleNamespace(cancel=lambda: entry.__setitem__(2, None))

    def schedule_after(self, delay, fn):
        return self.schedule_at(self.now + delay, fn)

    def call_after(self, delay, fn, arg):
        self.schedule_at(self.now + delay, lambda: fn(arg))

    @property
    def pending_events(self):
        return sum(entry[2] is not None for entry in self._queue)

    def run(self, until=None):
        fired = 0
        while self._queue and (until is None or self._queue[0][0] <= until):
            time, _, fn = self._queue.pop(0)
            if fn is not None:
                self.now, fired = time, fired + 1
                fn()
        if until is not None and until > self.now:
            self.now = until
        return fired


def _make_script(seed, length):
    rng = random.Random(seed)
    script = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.30:
            script.append(("at", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.55:
            script.append(("after", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.70:
            # Hot-path API: no handle, (callback, arg) dispatch.
            script.append(("call", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.82:
            script.append(("cancel", rng.randrange(1 << 30)))
        elif roll < 0.90:
            script.append(("run_until", rng.choice(_DELTAS)))
        elif roll < 0.95:
            script.append(("run_all",))
        else:
            # Cancel storm: a burst of doomed events plus survivors.
            script.append(("storm", 8 + rng.randrange(200), rng.choice(_DELTAS)))
    script.append(("run_all",))
    return script


def _apply(sim, script):
    """Replay ``script`` on ``sim``; return the firing log and checkpoints."""
    log = []
    checkpoints = []
    handles = []  # every cancellable handle ever created

    def fire(tag):
        log.append((tag, sim.now))

    def firing(tag):  # a distinct callable per event, shared shape
        return lambda: fire(tag)

    for op in script:
        kind = op[0]
        if kind == "at":
            _, delta, tag = op
            handles.append(sim.schedule_at(sim.now + delta, firing(tag)))
        elif kind == "after":
            _, delta, tag = op
            handles.append(sim.schedule_after(delta, firing(tag)))
        elif kind == "call":
            _, delta, tag = op
            sim.call_after(delta, fire, ("call", tag))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "run_until":
            fired = sim.run(until=sim.now + op[1])
            checkpoints.append(("until", fired, sim.now, sim.pending_events))
        elif kind == "run_all":
            fired = sim.run()
            checkpoints.append(("all", fired, sim.now, sim.pending_events))
        elif kind == "storm":
            _, count, delta = op
            doomed = [
                sim.schedule_at(sim.now + delta + (i % 7), lambda: fire("doomed"))
                for i in range(count)
            ]
            survivor_tag = ("survivor", count)
            handles.append(sim.schedule_after(delta + 3, firing(survivor_tag)))
            for event in doomed:
                event.cancel()
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


def test_cancel_storm_keeps_pending_exact_and_compacts_in_place():
    """A storm inside a running callback: ``pending_events`` stays exact
    after every cancel, and compaction rebuilds the very list ``run`` is
    draining (a replaced list would strand the events scheduled after it
    and leave tombstones counted against a stale total)."""
    sim = Simulator()
    fired = []

    def storm():
        keep = [sim.schedule_after(5000 + i, lambda i=i: fired.append(i)) for i in range(3)]
        doomed = [sim.schedule_after((i * 37) % 9000, lambda: fired.append("doomed"))
                  for i in range(400)]
        for n, event in enumerate(doomed, 1):
            event.cancel()
            assert sim.pending_events == len(keep) + len(doomed) - n
        assert sim._retained_entries() < 2 * sim.COMPACT_MIN_SIZE
        sim.schedule_after(1, lambda: fired.append("after"))

    sim.schedule_at(1, storm)
    assert sim.run() == 5
    assert fired == ["after", 0, 1, 2]
    assert sim.pending_events == 0
    assert sim._retained_entries() == 0


def test_cancel_after_fire_does_nothing():
    sim = Simulator()
    fired = []
    public = sim.schedule_at(3, lambda: fired.append("public"))
    for i in range(5):
        sim.call_after(i, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, "public", 3, 4]
    public.cancel()
    assert not public.cancelled
    later = sim.schedule_after(1, lambda: fired.append("later"))
    assert sim.pending_events == 1
    assert sim.run() == 1
    assert fired[-1] == "later"
    assert sim.pending_events == 0 and not later.cancelled


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

"""Spin leases: the spin fast-forward in :mod:`repro.cpu.core`.

A polling spinner whose failed probes are stateless repeats (Neat's, see
``CoherenceProtocol.spin_poll_lease``) holds a lease instead of probing:
the core arms an engine watch (``Simulator.watch_at``) whose polls
compare the polled word inside the run loop, and the first poll that
sees a change calls ``Core._settle_lease``, which adds the deltas of
every elided poll at once before it runs the full probe.  These tests
drive one ``WaitLoad`` through leases that settle after zero, one and
many elided polls, inside and outside a time bucket, and check the
leased run against the same run with leasing disabled.
"""

import pytest

from repro.cpu.core import Core
from repro.cpu.isa import Compute, PopBucket, PushBucket, Store, WaitLoad
from repro.noc.messages import MessageClass
from repro.protocols.neat import NeatProtocol
from repro.protocols.registry import protocol_names
from repro.sim.engine import Simulator
from repro.stats.timeparts import TimeComponent

#: Writer delay before the release store, in cycles -> polls the lease
#: elides.  The spinner's first probe is a cold miss, so its first poll
#: fires at cycle 238 and the next ones 49 cycles apart: a store issued
#: by cycle 238 settles the lease on its first poll, with nothing elided.
ELIDED_POLLS = {0: 0, 230: 0, 240: 1, 300: 2, 1000: 16, 5000: 98}


def _never_lease(self, core_id, addr):
    return None


def _state(machine):
    """Everything a lease could skew: finish cycles, traffic by class,
    protocol counters and each core's time breakdown."""
    protocol = machine.protocol
    traffic = protocol.traffic
    return (
        [core.finish_time for core in machine.cores],
        [(traffic.flit_crossings(k), traffic.message_count(k)) for k in MessageClass],
        protocol.counters.as_dict(),
        [core.time.as_dict() for core in machine.cores],
    )


class Recorder:
    """Counts lease grants, watch polls and settles through wrapping
    patches."""

    def __init__(self, monkeypatch):
        self.grants = 0
        self.polls = []
        self.settles = 0
        grant_lease = NeatProtocol.spin_poll_lease
        watch_at = Simulator.watch_at
        settle_lease = Core._settle_lease

        def counted_grant(protocol, core_id, addr):
            lease = grant_lease(protocol, core_id, addr)
            self.grants += lease is not None
            return lease

        def counted_watch(sim, time, period, poll, expected, callback, arg=None):
            core = callback.__self__

            def counted_poll():
                # What the run has charged so far, before this poll.
                self.polls.append(
                    (
                        sim.epoch_stats["spin_polls_elided"],
                        core.protocol.counters.as_dict(),
                        core.time.as_dict(),
                    )
                )
                return poll()

            watch_at(sim, time, period, counted_poll, expected, callback, arg)

        def counted_settle(core, op):
            self.settles += 1
            settle_lease(core, op)

        monkeypatch.setattr(NeatProtocol, "spin_poll_lease", counted_grant)
        monkeypatch.setattr(Simulator, "watch_at", counted_watch)
        monkeypatch.setattr(Core, "_settle_lease", counted_settle)


def _spin_run(machine_factory, delay, spinners=1, protocol="Neat", bucket=None):
    """On a 4-core machine, ``spinners`` cores wait for ``flag == 1`` and
    the next core release-stores it after ``delay`` cycles.  With
    ``bucket`` the spinners wait inside ``PushBucket(bucket)``."""
    machine = machine_factory(protocol, 4)
    flag = machine.allocator.alloc_sync("flag").base

    def spinner():
        if bucket is not None:
            yield PushBucket(bucket)
        yield WaitLoad(flag, lambda v: v == 1)
        if bucket is not None:
            yield PopBucket()

    def writer():
        yield Compute(delay)
        yield Store(flag, 1, sync=True, release=True)

    machine.run([spinner() for _ in range(spinners)] + [writer()])
    return machine


def _leased_and_polled(machine_factory, monkeypatch, **scenario):
    recorder = Recorder(monkeypatch)
    leased = _spin_run(machine_factory, **scenario)
    monkeypatch.setattr(NeatProtocol, "spin_poll_lease", _never_lease)
    polled = _spin_run(machine_factory, **scenario)
    assert polled.sim.epoch_stats["spin_polls_elided"] == 0
    return leased, polled, recorder


@pytest.mark.parametrize("delay", ELIDED_POLLS)
def test_a_settled_lease_matches_polling(machine_factory, monkeypatch, delay):
    leased, polled, recorder = _leased_and_polled(
        machine_factory, monkeypatch, delay=delay
    )
    assert recorder.grants == 1
    assert recorder.settles == 1
    assert _state(leased) == _state(polled)


@pytest.mark.parametrize("delay,polls", ELIDED_POLLS.items())
def test_every_poll_but_the_settling_one_is_an_elided_poll(
    machine_factory, monkeypatch, delay, polls
):
    """The settle derives its poll count from the clock; it must equal
    the polls that fired and found the word unchanged."""
    leased, _, recorder = _leased_and_polled(machine_factory, monkeypatch, delay=delay)
    assert len(recorder.polls) == polls + 1
    assert leased.sim.epoch_stats["spin_polls_elided"] == polls


def test_an_open_lease_charges_nothing_until_it_settles(machine_factory, monkeypatch):
    leased, _, recorder = _leased_and_polled(machine_factory, monkeypatch, delay=1000)
    open_polls = recorder.polls[:-1]
    assert len(open_polls) == 16
    # No poll before the settle saw anything the grant had not left
    # behind: not an elided poll, a counter or a spinner cycle.
    assert open_polls[0][0] == 0
    assert all(snapshot == open_polls[0] for snapshot in open_polls)
    assert leased.sim.epoch_stats["spin_polls_elided"] == 16


@pytest.mark.parametrize("spinners", [2, 3])
def test_each_spinner_settles_its_own_lease(machine_factory, monkeypatch, spinners):
    leased, polled, recorder = _leased_and_polled(
        machine_factory, monkeypatch, delay=1000, spinners=spinners
    )
    assert recorder.grants == spinners
    assert recorder.settles == spinners
    assert leased.sim.epoch_stats["spin_polls_elided"] >= 16 * spinners
    assert _state(leased) == _state(polled)


@pytest.mark.parametrize(
    "bucket",
    [TimeComponent.BARRIER_STALL, TimeComponent.NON_SYNCH],
    ids=["barrier", "non-synch"],
)
def test_leased_time_lands_in_the_open_bucket(machine_factory, monkeypatch, bucket):
    """Inside a ``PushBucket`` every spin cycle is charged to the bucket,
    the branch barrier waits take."""
    leased, polled, recorder = _leased_and_polled(
        machine_factory, monkeypatch, delay=1000, bucket=bucket
    )
    assert recorder.grants == 1
    assert _state(leased) == _state(polled)
    spinner = leased.cores[0]
    assert spinner.time.as_dict()[bucket.value] == spinner.finish_time


@pytest.mark.parametrize("protocol", list(protocol_names()))
def test_only_neat_spinners_lease(machine_factory, protocol):
    """Subscription-based spinners (MESI) and backoff-capable ones (the
    DeNovo family, SynCron) never lease; Neat's polling spinners do."""
    machine = _spin_run(machine_factory, delay=1000, protocol=protocol)
    elided = machine.sim.epoch_stats["spin_polls_elided"]
    assert (elided > 0) == (protocol == "Neat")

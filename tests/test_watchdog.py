"""Liveness watchdog tests: hang detection, dumps, event attribution.

The centerpiece is the PR-1 regression: re-introduce the MESI
sleeping-waiter bug (eviction of a subscribed spin-waiter's copy without
waking it) behind a test shim, force the eviction with a scripted fault,
and assert the watchdog converts the silent hang into a
:class:`SimulationStuck` whose dump names the blocked core, its pending
op, and the contested line's directory state.
"""

import pytest

from repro.config import config_for_cores
from repro.cpu.isa import Compute, Store, WaitLoad
from repro.harness.runner import run_workload
from repro.mem.address import AddressMap
from repro.mem.l1 import MesiState
from repro.mem.regions import RegionAllocator
from repro.noc.faults import FaultPlan
from repro.protocols.mesi import MesiProtocol
from repro.sim.engine import Simulator
from repro.sim.watchdog import CHECK_INTERVAL, HangError, SimulationStuck, Watchdog
from repro.workloads.base import Workload, WorkloadInstance


class FlagHandoff(Workload):
    """Core 1 spin-waits on a flag that core 0 sets after a delay."""

    name = "flag-handoff"

    def __init__(self, write_at: int = 400):
        self.write_at = write_at
        self.flag = None  # filled by build(); allocation is deterministic

    def build(self, config, *, seed=0):
        allocator = RegionAllocator(AddressMap(config))
        flag = allocator.alloc_sync("flag").base
        self.flag = flag

        def writer():
            yield Compute(self.write_at)
            yield Store(flag, 1, sync=True)

        def waiter():
            yield WaitLoad(flag, lambda v: v == 1, sync=True)

        def idle():
            yield Compute(1)

        programs = [writer(), waiter()]
        programs += [idle() for _ in range(config.num_cores - 2)]
        return WorkloadInstance(self.name, allocator, programs)


class SpinForever(Workload):
    """Cores 0 and 1 both spin on a flag nobody ever sets.  Under
    DeNovoSync0 each registering probe steals the registration from (and
    wakes) the other spinner: an endless ping-pong in which events keep
    firing and the clock keeps advancing but no operation ever retires —
    the livelock shape the progress window exists to catch."""

    name = "spin-forever"

    def build(self, config, *, seed=0):
        allocator = RegionAllocator(AddressMap(config))
        flag = allocator.alloc_sync("flag").base

        def spinner():
            yield WaitLoad(flag, lambda v: v == 1, sync=True)

        def idle():
            yield Compute(1)

        programs = [spinner(), spinner()]
        programs += [idle() for _ in range(config.num_cores - 2)]
        return WorkloadInstance(self.name, allocator, programs)


def _flag_line(config):
    """The cache line the flag lands on (allocation is deterministic)."""
    probe = FlagHandoff()
    probe.build(config)
    return probe.flag, AddressMap(config).line_of(probe.flag)


def _broken_handle_victim(self, core_id, vline, vstate):
    """The PR-1 bug, re-introduced: eviction bookkeeping without the
    spin-waiter wake-up (no ``_wake`` call)."""
    ventry = self._entry(vline)
    if vstate in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
        ventry.exclusive_owner = None
    else:
        ventry.sharers.discard(core_id)


class TestSleepingWaiterRegression:
    def test_rebroken_mesi_waiter_caught_with_dump(self, monkeypatch):
        config = config_for_cores(4)
        flag, line = _flag_line(config)
        monkeypatch.setattr(MesiProtocol, "_handle_victim", _broken_handle_victim)
        # Evict the waiter's subscribed copy between its subscription
        # (cycle 0) and the writer's store (cycle ~400): with the shim the
        # waiter is never woken and the run silently deadlocks.
        plan = FaultPlan(scripted_evictions=((100, 1, line),))

        with pytest.raises(SimulationStuck) as excinfo:
            run_workload(FlagHandoff(), "MESI", config, fault_plan=plan)

        message = str(excinfo.value)
        # The dump names the blocked core and its pending op...
        assert "core 1: WaitLoad" in message
        assert "spin-sleep (subscribed)" in message
        # ...and the contested line's directory state.
        assert f"addr {flag} (line {line})" in message
        assert "directory[" in message
        assert "subscribed waiters=[1]" in message

        dump = excinfo.value.dump
        assert dump is not None
        assert dump.reason == "quiescence deadlock"
        assert [info.core_id for info in dump.blocked] == [1]
        assert dump.blocked[0].wait_reason == "spin-sleep (subscribed)"
        assert dump.pending_events == 0  # drained queue = deadlock shape

    def test_fixed_protocol_survives_the_same_eviction(self):
        """Control: without the shim the identical scripted eviction wakes
        the waiter (the PR-1 fix) and the run completes."""
        config = config_for_cores(4)
        flag, line = _flag_line(config)
        plan = FaultPlan(scripted_evictions=((100, 1, line),))

        result = run_workload(
            FlagHandoff(), "MESI", config, fault_plan=plan, keep_protocol=True
        )
        assert result.meta["fault_injector"].forced_evictions == 1
        assert result.meta["protocol"].memory.read(flag) == 1


class TestProgressWindow:
    def test_denovo_spin_livelock_detected(self):
        config = config_for_cores(4)
        with pytest.raises(HangError) as excinfo:
            run_workload(
                SpinForever(), "DeNovoSync0", config, progress_window=5_000
            )
        assert "livelock" in str(excinfo.value)
        dump = excinfo.value.dump
        assert dump.reason == "no global progress"
        assert [info.core_id for info in dump.blocked] == [0, 1]
        assert dump.pending_events > 0  # events in flight = livelock shape

    def test_max_cycles_budget(self):
        config = config_for_cores(4)
        with pytest.raises(HangError) as excinfo:
            run_workload(SpinForever(), "DeNovoSync0", config, max_cycles=2_000)
        assert "max_cycles=2000" in str(excinfo.value)
        assert excinfo.value.dump.reason == "max-cycles budget exceeded"

    def test_disabled_window_allows_long_quiet_stretches(self):
        """window=None turns the no-progress check off entirely."""
        config = config_for_cores(4)
        result = run_workload(
            FlagHandoff(write_at=50), "MESI", config, progress_window=None
        )
        assert result.cycles > 0


class TestWatchdogValidation:
    def test_window_validated(self):
        with pytest.raises(ValueError):
            Watchdog(Simulator(), [], None, window=0)


class CountingWatchdog:
    """Stands in for :class:`Watchdog`: records the clock at every poll."""

    def __init__(self, sim):
        self.sim = sim
        self.polls = []

    def check(self):
        self.polls.append(self.sim.now)


class TestPolling:
    def test_run_polls_once_per_interval_of_events(self):
        sim = Simulator()
        sim.watchdog = watchdog = CountingWatchdog(sim)
        for t in range(2 * CHECK_INTERVAL + 7):
            sim.call_at(t, lambda _: None)
        assert sim.run() == 2 * CHECK_INTERVAL + 7
        # Polled after each CHECK_INTERVAL-th event, before the next fires.
        assert watchdog.polls == [CHECK_INTERVAL - 1, 2 * CHECK_INTERVAL - 1]

    def test_poll_and_spent_budget_on_the_same_event(self):
        sim = Simulator()
        sim.watchdog = watchdog = CountingWatchdog(sim)
        for t in range(CHECK_INTERVAL + 1):
            sim.call_at(t, lambda _: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=CHECK_INTERVAL)
        assert watchdog.polls == [CHECK_INTERVAL - 1]
        assert sim.pending_events == 1


class TestEventAttribution:
    def test_callback_exception_names_scheduling_site(self):
        sim = Simulator()

        def boom(_):
            raise ValueError("kaboom")

        # Scheduled at cycle 5 (inside another event), fires at cycle 12.
        sim.call_at(5, lambda _: sim.call_after(7, boom))
        with pytest.raises(ValueError, match="kaboom") as excinfo:
            sim.run()
        notes = getattr(excinfo.value, "__notes__", [])
        assert any(
            "at cycle 12" in note and "scheduled at cycle 5" in note
            for note in notes
        )

    def test_exception_type_is_preserved(self):
        """Attribution annotates (PEP 678); it must not wrap or re-type."""
        sim = Simulator()
        sim.call_at(0, lambda _: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()


class TestCliGuard:
    def test_run_aborts_with_dump_on_max_cycles(self, capsys):
        from repro.harness.cli import main as cli_main

        code = cli_main(
            [
                "run", "--workload", "tatas/counter", "--protocol", "MESI",
                "--cores", "16", "--scale", "0.02", "--max-cycles", "2000",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "simulation aborted" in err
        assert "watchdog diagnostic dump" in err
        assert "blocked cores" in err

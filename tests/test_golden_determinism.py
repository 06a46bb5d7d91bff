"""Golden-run determinism of the event queue and the spin-lease path.

Every consumer of the simulator — figures, chaos differential runs, model
checking, trace capture — relies on the deterministic (cycle, seq) firing
order.  These tests pin that down:

* the same workload run twice produces byte-identical stats JSON and
  byte-identical trace files, for every registry protocol;
* spin leases change host work, never results: with leases Neat (the one
  registry protocol whose failed polls are stateless) elides polls, with
  its lease hook disabled it elides none, and both runs give identical
  summaries, traffic, counters and per-core time — also when a settled
  lease re-arms inside the same ``WaitLoad``, and when the protocol
  writes the polled word from a helper method rather than an access
  method.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.config import config_for_cores
from repro.cpu.isa import Compute, Store, WaitLoad
from repro.harness.runner import run_workload
from repro.noc.messages import MessageClass
from repro.protocols import registry
from repro.protocols.neat import NeatProtocol
from repro.protocols.registry import get_info, protocol_names
from repro.trace.events import write_trace
from repro.workloads.base import KernelSpec
from repro.workloads.registry import all_kernel_ids, make_kernel

CELLS = [
    ("tatas", "counter"),  # lock kernel
    ("barrier", "central"),  # barrier kernel
    ("nonblocking", "M-S queue"),  # non-blocking kernel
]
# Every protocol the plugin registry knows about, not just the figure set:
# the determinism and lease contracts must hold for all of them.
PROTOCOLS = list(protocol_names())


def _golden(family, name, protocol, tmp_path, tag):
    """(stats JSON bytes, trace SHA-256) for one traced run."""
    workload = make_kernel(family, name, spec=KernelSpec(scale=0.02))
    result = run_workload(
        workload, protocol, config_for_cores(4), seed=1, trace=True
    )
    path = tmp_path / f"{tag}.jsonl"
    write_trace(result.meta["trace"], path)
    stats = json.dumps(result.summary(), sort_keys=True).encode()
    return stats, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family,name", CELLS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_repeat_runs_are_byte_identical(family, name, protocol, tmp_path):
    first = _golden(family, name, protocol, tmp_path, "first")
    second = _golden(family, name, protocol, tmp_path, "second")
    assert first == second


#: Neat cells for the lease-equivalence check: every kernel (each one
#: spins, so each one leases) at 16 cores, plus a 64-core lock cell, the
#: shape the e2e ``lock64`` workload's elided polls come from.
LEASE_CELLS = [(family, name, 16) for family, name in all_kernel_ids()]
LEASE_CELLS.append(("tatas", "large CS", 64))
LEASE_IDS = [f"{f}-{n}" + ("-64c" if c == 64 else "") for f, n, c in LEASE_CELLS]


def _never_lease(self, core_id, addr):
    return None


def _simulated(traffic, counters, per_core_time):
    """Every simulated number a lease could skew: traffic by class
    (flits and messages), protocol counters, and each core's time."""
    return (
        [(traffic.flit_crossings(k), traffic.message_count(k)) for k in MessageClass],
        counters.as_dict(),
        [time.as_dict() for time in per_core_time],
    )


def _assert_leases_match_polling(family, name, cores, cls, monkeypatch):
    """Run one Neat cell with leases, then with ``cls``'s lease hook
    disabled: the spin fast-forward must actually engage and still match.

    Tracing wraps the protocol (which disables leasing), so this check
    runs untraced.
    """
    def run():
        workload = make_kernel(family, name, spec=KernelSpec(scale=0.02))
        result = run_workload(
            workload, "Neat", config_for_cores(cores), seed=1, keep_protocol=True
        )
        assert type(result.meta["protocol"]) is cls
        return result

    leased = run()
    monkeypatch.setattr(cls, "spin_poll_lease", _never_lease)
    polled = run()
    assert leased.meta["epoch"]["spin_polls_elided"] > 0
    assert polled.meta["epoch"]["spin_polls_elided"] == 0
    assert json.dumps(leased.summary(), sort_keys=True) == json.dumps(
        polled.summary(), sort_keys=True
    )
    assert _simulated(
        leased.traffic, leased.counters, leased.per_core_time
    ) == _simulated(polled.traffic, polled.counters, polled.per_core_time)


@pytest.mark.parametrize("family,name,cores", LEASE_CELLS, ids=LEASE_IDS)
def test_spin_leases_leave_results_byte_identical(family, name, cores, monkeypatch):
    _assert_leases_match_polling(family, name, cores, NeatProtocol, monkeypatch)


class _HelperWriteNeat(NeatProtocol):
    """Neat whose ``rmw`` commits its result through a helper method,
    not in its own body."""

    def rmw(self, core_id, addr, fn, release=False):
        flush = self._flush_dirty(core_id) if release else 0
        latency = self._sync_access(core_id, addr)
        old = self._mem_get(addr, 0)
        self._commit(addr, fn(old))
        self._counts["rmws"] += 1
        return (old, latency + flush, False, False)

    def _commit(self, addr, new):
        if new is not None:
            self._mem_values[addr] = new


@pytest.mark.parametrize("family,name", [("tatas", "counter"), ("barrier", "central")])
def test_a_helper_method_write_leaves_leases_exact(family, name, monkeypatch):
    """Where a protocol writes the polled word does not matter: the
    engine watch re-reads ``memory._values`` at the (cycle, seq) of every
    probe it replaces, so it sees the write wherever the code makes it."""
    helper_neat = dataclasses.replace(get_info("Neat"), cls=_HelperWriteNeat)
    monkeypatch.setitem(registry._REGISTRY, "Neat", helper_neat)
    _assert_leases_match_polling(family, name, 16, _HelperWriteNeat, monkeypatch)


def _rearm_run(machine_factory):
    """A Neat spinner waits for ``flag == 1``.  The writer's first sync
    store (2) fails the predicate, so the settling probe arms a second
    lease; two data stores one cycle apart then flip the word 2 -> 7 -> 2
    between two ticks of that lease, before the release store of 1."""
    machine = machine_factory("Neat", 4)
    flag = machine.allocator.alloc_sync("flag").base

    def spinner():
        yield WaitLoad(flag, lambda v: v == 1)

    def writer():
        yield Compute(600)
        yield Store(flag, 2, sync=True)
        yield Compute(700)
        yield Store(flag, 7)
        yield Store(flag, 2)
        yield Store(flag, 1, sync=True, release=True)

    machine.run([spinner(), writer()])
    return machine


def test_a_rearmed_lease_matches_polling(machine_factory, monkeypatch):
    grants = []
    grant_lease = NeatProtocol.spin_poll_lease

    def counted(self, core_id, addr):
        lease = grant_lease(self, core_id, addr)
        if lease is not None:
            grants.append(self.now)
        return lease

    monkeypatch.setattr(NeatProtocol, "spin_poll_lease", counted)
    leased = _rearm_run(machine_factory)
    monkeypatch.setattr(NeatProtocol, "spin_poll_lease", _never_lease)
    polled = _rearm_run(machine_factory)

    # The first lease, one re-arm after the rejected store, and no third:
    # a tick that saw the flip would have settled and re-armed again.
    assert len(grants) == 2
    assert leased.sim.epoch_stats["spin_polls_elided"] > 0
    assert polled.sim.epoch_stats["spin_polls_elided"] == 0

    def state(machine):
        protocol = machine.protocol
        return [core.finish_time for core in machine.cores], _simulated(
            protocol.traffic, protocol.counters, [core.time for core in machine.cores]
        )

    assert state(leased) == state(polled)

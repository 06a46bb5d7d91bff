"""Tests for the signature-based data-consistency extension."""

import pytest

from repro.config import config_for_cores
from repro.cpu.isa import Compute, Load, Store
from repro.harness.runner import run_workload
from repro.protocols.signatures import (
    SIGNATURE_CAPACITY,
    DeNovoSyncSigProtocol,
)
from repro.synclib.tatas import TatasLock
from repro.workloads.apps import app_core_count, make_app
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

ADDR_LOCK = 64
ADDR_DATA = 160


@pytest.fixture
def proto():
    return DeNovoSyncSigProtocol(config_for_cores(4))


def _spaced(proto):
    """Advance the protocol clock far enough that nothing overlaps."""
    proto.now = proto.now + 5000


class TestSignatureMechanics:
    def test_writes_accumulate_in_core_signature(self, proto):
        proto.store(0, ADDR_DATA, 1)
        proto.store(0, ADDR_DATA + 1, 2)
        assert proto._core_sigs[0] == {ADDR_DATA, ADDR_DATA + 1}

    def test_sync_writes_not_in_signature(self, proto):
        proto.store(0, ADDR_LOCK, 1, sync=True)
        assert proto._core_sigs[0] == set()

    def test_release_attaches_and_clears(self, proto):
        proto.store(0, ADDR_DATA, 1)
        _spaced(proto)
        proto.store(0, ADDR_LOCK, 0, sync=True, release=True)
        assert proto._core_sigs[0] == set()
        epochs = [e for e, _ in proto._var_log[ADDR_LOCK]]
        assert len(epochs) == 1
        assert set().union(*[w for _, w in proto._var_log[ADDR_LOCK]]) == {ADDR_DATA}

    def test_release_wave_reattaches(self, proto):
        """Consecutive releases with no intervening writes carry the same
        signature (tree-barrier departure waves)."""
        proto.store(0, ADDR_DATA, 1)
        _spaced(proto)
        proto.store(0, ADDR_LOCK, 0, sync=True, release=True)
        _spaced(proto)
        proto.store(0, ADDR_LOCK + 16, 0, sync=True, release=True)
        words = set().union(*[w for _, w in proto._var_log[ADDR_LOCK + 16]])
        assert ADDR_DATA in words

    def test_acquire_invalidates_valid_copies_only(self, proto):
        # Core 1 caches the data word as Valid.
        proto.load(1, ADDR_DATA)
        # Core 0 writes it and releases.
        _spaced(proto)
        proto.store(0, ADDR_DATA, 9)
        proto.store(0, ADDR_LOCK, 0, sync=True, release=True)
        # Core 1 acquires: its stale Valid copy must die.
        _spaced(proto)
        proto.on_acquire(1, ADDR_LOCK)
        from repro.mem.l1 import DeNovoState

        assert proto.l1s[1].state_of(ADDR_DATA) is DeNovoState.INVALID
        assert proto.load(1, ADDR_DATA, ticketed=True).value == 9

    def test_acquire_delivers_only_the_delta(self, proto):
        """A second acquire sees only releases after the first."""
        proto.store(0, ADDR_DATA, 1)
        _spaced(proto)
        proto.store(0, ADDR_LOCK, 0, sync=True, release=True)
        _spaced(proto)
        proto.on_acquire(1, ADDR_LOCK)  # consumes the first delta
        # Core 1 re-caches the word.
        proto.load(1, ADDR_DATA, ticketed=True)
        _spaced(proto)
        proto.on_acquire(1, ADDR_LOCK)  # no new releases: no invalidation
        from repro.mem.l1 import DeNovoState

        assert proto.l1s[1].state_of(ADDR_DATA) is DeNovoState.VALID

    def test_transitivity_through_second_variable(self, proto):
        lock2 = ADDR_LOCK + 32
        proto.store(0, ADDR_DATA, 5)
        _spaced(proto)
        proto.store(0, ADDR_LOCK, 0, sync=True, release=True)
        # Core 1: acquire L1, release L2 (writes nothing itself).
        _spaced(proto)
        proto.on_acquire(1, ADDR_LOCK)
        _spaced(proto)
        proto.store(1, lock2, 0, sync=True, release=True)
        # Core 2 cached the stale word, then acquires only L2.
        proto.load(2, ADDR_DATA, ticketed=True)
        _spaced(proto)
        proto.store(0, ADDR_DATA, 6)  # newer write, before core 2's acquire?
        # (core 0's write isn't ordered by L2 — reset to the released value)
        proto.memory.write(ADDR_DATA, 5)
        proto.on_acquire(2, lock2)
        from repro.mem.l1 import DeNovoState

        assert proto.l1s[2].state_of(ADDR_DATA) is not DeNovoState.VALID

    def test_static_selfinv_is_noop(self, proto):
        from repro.mem.address import AddressMap
        from repro.mem.regions import RegionAllocator

        allocator = RegionAllocator(AddressMap(proto.config))
        region = allocator.region("r")
        latency = proto.self_invalidate(0, [region])
        assert latency == proto.config.tuning.self_invalidate_latency

    def test_flush_all_still_works(self, proto):
        proto.load(0, ADDR_DATA)
        proto.self_invalidate(0, [], flush_all=True)
        from repro.mem.l1 import DeNovoState

        assert proto.l1s[0].state_of(ADDR_DATA) is DeNovoState.INVALID


class TestOverflowPaths:
    def test_core_signature_overflow_degrades_to_flush(self, proto):
        sig = proto._core_sigs[0]
        for i in range(SIGNATURE_CAPACITY + 1):
            sig.add(10_000 + i)
        proto._record_write(0, 99_999)
        assert proto._core_sigs[0] is None
        _spaced(proto)
        proto.store(0, ADDR_LOCK, 0, sync=True, release=True)
        # Core 1, having cached something, must flush on acquire.
        proto.load(1, ADDR_DATA, ticketed=True)
        _spaced(proto)
        proto.on_acquire(1, ADDR_LOCK)
        from repro.mem.l1 import DeNovoState

        assert proto.l1s[1].state_of(ADDR_DATA) is DeNovoState.INVALID
        assert proto.counters.get("signature_flushes") == 1

    def test_log_pruning_forces_straggler_flush(self, proto):
        # Many big releases blow past the log capacity.
        for round_no in range(20):
            for i in range(400):
                proto._record_write(0, 50_000 + round_no * 400 + i)
            _spaced(proto)
            proto.store(0, ADDR_LOCK, round_no, sync=True, release=True)
        assert proto.counters.get("signature_log_prunes") > 0
        proto.load(1, ADDR_DATA, ticketed=True)
        _spaced(proto)
        proto.on_acquire(1, ADDR_LOCK)  # first acquire: history incomplete
        assert proto.counters.get("signature_flushes") >= 1


class TestEndToEnd:
    @staticmethod
    def _writer_reader_programs(machine, lock, word, observed):
        """A writer increments ``word`` under the lock; a read-only
        observer caches it early (a stale Valid copy under DeNovo), then
        re-reads it under the lock at the very end."""

        def writer(ctx):
            for _ in range(20):
                yield from lock.acquire(ctx)
                value = yield Load(word)
                yield Store(word, value + 1)
                yield from lock.release()
                yield Compute(ctx.rng.randrange(50, 150))

        def reader(ctx):
            yield Load(word)  # early read: caches a Valid copy
            yield Compute(60_000)  # the writer finishes meanwhile
            yield from lock.acquire(ctx)
            observed.append((yield Load(word)))
            yield from lock.release()

        return [writer(machine.ctx(0)), reader(machine.ctx(1))]

    def test_signatures_deliver_freshness_without_regions(self, machine_factory):
        """The headline: correct data under locks with zero region info."""
        machine = machine_factory("DeNovoSyncSig", 4)
        lock = TatasLock(machine.allocator)
        word = machine.allocator.alloc("plain.data").base
        observed = []
        machine.run(self._writer_reader_programs(machine, lock, word, observed))
        assert observed == [20]

    def test_static_denovo_is_stale_without_selfinv(self, machine_factory):
        """Sanity check of the test above: without the SelfInvalidate the
        *static* protocol hands the observer its stale Valid copy —
        signatures are doing real work, not riding on the registry."""
        machine = machine_factory("DeNovoSync", 4)
        lock = TatasLock(machine.allocator)
        word = machine.allocator.alloc("plain.data").base
        observed = []
        machine.run(self._writer_reader_programs(machine, lock, word, observed))
        assert observed[0] < 20  # the early Valid copy was served stale

    @pytest.mark.parametrize("figure", ["tatas", "array", "mcs"])
    def test_lock_kernels_run_under_signatures(self, figure):
        workload = make_kernel(figure, "counter", spec=KernelSpec(iterations=3))
        result = run_workload(
            workload, "DeNovoSyncSig", config_for_cores(16), seed=3,
            keep_protocol=True,
        )
        final = result.meta["protocol"].memory.read(workload.counter.addr)
        assert final == 16 * 3
        assert result.counters.get("signature_acquires") > 0

    def test_signatures_invalidate_no_more_than_static_regions(self):
        """fluidanimate at Figure 7's inputs (the ``ext-signatures`` cells):
        per-acquire write deltas never flush more words than the
        conservative static regions do."""
        config = config_for_cores(app_core_count("fluidanimate"))
        invalidated = {
            protocol: run_workload(
                make_app("fluidanimate", scale=0.5), protocol, config, seed=1
            ).counters.get("self_invalidated_words")
            for protocol in ("DeNovoSync", "DeNovoSyncSig")
        }
        assert 0 < invalidated["DeNovoSyncSig"] <= invalidated["DeNovoSync"]

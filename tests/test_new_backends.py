"""Behavioural tests for the two registry-discovered backends:

* **Neat** — self-invalidation + self-downgrade: data writes stay dirty
  and silent in the L1 until a release flushes them (or replacement
  writes them back); sync ops resolve at the LLC and leave no cached
  copy behind.
* **SynCron** — DeNovo data path + per-bank sync units: sync ops bypass
  the L1, serialize at the home bank's SU (bounded buffer with a
  memory-overflow fallback), and recall any data-registration of the
  word first.

Plus the explicit cross-protocol differential the issue asks for: both
new backends must produce byte-identical final memory to MESI on the
random DRF program corpus across three seeds, and a final-state
structural audit must come back clean.
"""

import pytest

from repro.cpu.isa import Cas, Fai, Load, SelfInvalidate, Store, WaitLoad
from repro.mem.l1 import DeNovoState


def alloc_shared(machine, name, words=4):
    region = machine.allocator.region(name)
    base = machine.allocator.alloc(name, words).base
    return region, base


class TestNeatSelfDowngrade:
    def test_data_store_is_dirty_until_release(self, machine_factory):
        m = machine_factory("Neat")
        _, base = alloc_shared(m, "d")
        flag = m.allocator.alloc_sync("flag").base

        def writer():
            yield Store(base, 7)
            # Dirty, not yet published as a writeback.
            yield Store(flag, 1, sync=True, release=True)

        m.run([writer()])
        protocol = m.protocol
        # After the release the word self-downgraded to clean Valid.
        assert protocol.l1s[0].state_of(base, touch=False) is DeNovoState.VALID
        assert not protocol._dirty[0]
        assert protocol.counters.get("self_downgraded_words") == 1
        assert protocol.memory.read(base) == 7

    def test_release_flush_batches_writeback_traffic_per_line(
        self, machine_factory
    ):
        m = machine_factory("Neat")
        _, base = alloc_shared(m, "d", words=4)
        flag = m.allocator.alloc_sync("flag").base

        def writer():
            for off in range(4):  # one line's worth of dirty words
                yield Store(base + off, off + 1)
            yield Store(flag, 1, sync=True, release=True)

        m.run([writer()])
        counts = m.protocol.counters.as_dict()
        assert counts.get("self_downgraded_words") == 4
        # No per-word registration messages exist in Neat at all.
        assert not counts.get("registration_transfers")

    def test_eviction_writes_dirty_word_back(self, machine_factory):
        m = machine_factory("Neat")
        _, base = alloc_shared(m, "d")

        def writer():
            yield Store(base, 5)

        m.run([writer()])
        protocol = m.protocol
        line = protocol.amap.line_of(base)
        assert protocol.force_evict(0, line)
        assert not protocol._dirty[0]
        assert protocol.counters.get("writebacks") == 1
        assert protocol.memory.read(base) == 5
        assert not protocol.invariant_violations()

    def test_sync_ops_leave_no_cached_copy(self, machine_factory):
        m = machine_factory("Neat")
        flag = m.allocator.alloc_sync("flag").base

        def core0():
            yield Store(flag, 3, sync=True)
            yield Fai(flag)

        m.run([core0()])
        assert (
            m.protocol.l1s[0].state_of(flag, touch=False)
            is DeNovoState.INVALID
        )
        assert m.protocol.memory.read(flag) == 4

    def test_polling_spinner_observes_release(self, machine_factory):
        m = machine_factory("Neat", num_cores=4)
        region, base = alloc_shared(m, "d")
        flag = m.allocator.alloc_sync("flag").base

        def producer():
            yield Store(base, 42)
            yield Store(flag, 1, sync=True, release=True)

        def consumer():
            yield WaitLoad(flag, lambda v: v == 1, acquire=True)
            yield SelfInvalidate((region,))
            value = yield Load(base)
            assert value == 42

        m.run([producer(), consumer()])
        assert not m.protocol.invariant_violations()


class TestSynCronSyncUnits:
    def test_sync_ops_bypass_the_l1(self, machine_factory):
        m = machine_factory("SynCron")
        flag = m.allocator.alloc_sync("flag").base

        def core0():
            yield Store(flag, 2, sync=True)
            value = yield Load(flag, sync=True)
            assert value == 2

        m.run([core0()])
        protocol = m.protocol
        assert (
            protocol.l1s[0].state_of(flag, touch=False) is DeNovoState.INVALID
        )
        assert flag not in protocol.registry
        counts = protocol.counters.as_dict()
        assert counts.get("sync_unit_ops") == 2

    def test_contended_rmws_queue_at_the_sync_unit(self, machine_factory):
        m = machine_factory("SynCron", num_cores=4)
        counter = m.allocator.alloc_sync("c").base

        def worker():
            for _ in range(4):
                yield Fai(counter)

        m.run([worker() for _ in range(4)])
        protocol = m.protocol
        assert protocol.memory.read(counter) == 16
        counts = protocol.counters.as_dict()
        assert counts.get("sync_unit_ops") == 16
        assert counts.get("sync_unit_queue_waits", 0) > 0

    def test_bounded_buffer_overflow_falls_back_to_memory(
        self, machine_factory
    ):
        m = machine_factory("SynCron")
        protocol = m.protocol
        entries = protocol._su_entries
        # More sync variables on one bank than the SU can index: line-
        # aligned strides keep every word on bank 0's home slice.
        words_per_line = m.config.line_bytes // m.config.word_bytes
        stride = m.config.num_cores * words_per_line  # one full bank stride

        def core0():
            for i in range(entries + 8):
                yield Store(i * stride, 1, sync=True)

        m.run([core0()])
        counts = protocol.counters.as_dict()
        assert counts.get("sync_unit_overflows", 0) >= 8

    def test_sync_op_recalls_data_registration(self, machine_factory):
        m = machine_factory("SynCron")
        _, base = alloc_shared(m, "d")

        def core0():
            yield Store(base, 9)       # data path: registers the word
            yield Fai(base)            # sync path: SU must recall it

        m.run([core0()])
        protocol = m.protocol
        assert base not in protocol.registry
        assert (
            protocol.l1s[0].state_of(base, touch=False) is DeNovoState.INVALID
        )
        assert protocol.counters.get("sync_unit_recalls") == 1
        assert protocol.memory.read(base) == 10
        assert not protocol.invariant_violations()

    def test_parked_spinner_wakes_on_value_change(self, machine_factory):
        m = machine_factory("SynCron", num_cores=4)
        flag = m.allocator.alloc_sync("flag").base
        lock = m.allocator.alloc_sync("lock").base

        def holder():
            yield Cas(lock, 0, 1)
            yield Store(flag, 1, sync=True)
            yield Store(lock, 0, sync=True, release=True)

        def waiter():
            yield WaitLoad(flag, lambda v: v == 1)
            yield WaitLoad(lock, lambda v: v == 0)

        m.run([holder(), waiter()])
        protocol = m.protocol
        assert not protocol._su_waiters  # everyone woke up


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("protocol", ["Neat", "SynCron"])
class TestNewBackendDifferential:
    """Byte-identical final memory vs. MESI on the random DRF corpus."""

    def test_final_memory_matches_mesi(self, seed, protocol):
        from tests.test_differential import _final_state

        assert _final_state(seed, protocol) == _final_state(seed, "MESI")

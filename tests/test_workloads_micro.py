"""Tests for the coherence microbenchmarks."""

import pytest

from repro.config import config_for_cores
from repro.harness.runner import run_workload
from repro.workloads.micro import (
    MICROBENCHES,
    AllToAll,
    FalseSharingMicro,
    PingPong,
    ProducerConsumer,
    ReadOnlySharing,
)

PROTOCOLS = ["MESI", "DeNovoSync0", "DeNovoSync", "DeNovoSyncSig"]


@pytest.mark.parametrize("name", list(MICROBENCHES))
@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestMicrobenchesRun:
    def test_runs_to_completion(self, name, protocol):
        workload = MICROBENCHES[name](rounds=4)
        result = run_workload(workload, protocol, config_for_cores(16), seed=1)
        assert result.cycles > 0


class TestMicrobenchSemantics:
    def test_pingpong_final_count(self):
        workload = PingPong(rounds=10)
        result = run_workload(
            workload, "DeNovoSync", config_for_cores(4), seed=1, keep_protocol=True
        )
        # 10 rounds x 2 cores of strictly alternating increments.
        protocol = result.meta["protocol"]
        instance_word = None
        # the single sync word is the first padded allocation
        for alloc in protocol.allocator.allocations:
            if alloc.region.name == "pp.word":
                instance_word = alloc.base
        assert protocol.memory.read(instance_word) == 20

    def test_false_sharing_hurts_mesi_only(self):
        config = config_for_cores(16)
        mesi = run_workload(FalseSharingMicro(rounds=20), "MESI", config, seed=1)
        denovo = run_workload(
            FalseSharingMicro(rounds=20), "DeNovoSync", config, seed=1
        )
        # MESI ping-pongs whole lines between the word owners.
        assert mesi.counters.get("invalidations_sent") > 0
        assert denovo.cycles < mesi.cycles
        assert denovo.total_traffic < mesi.total_traffic

    def test_read_only_sharing_is_cheap_everywhere(self):
        config = config_for_cores(16)
        for protocol in PROTOCOLS:
            result = run_workload(ReadOnlySharing(rounds=10), protocol, config, seed=1)
            hits = result.counters.get("l1_hits")
            misses = result.counters.get("l1_misses")
            assert hits / (hits + misses) > 0.9  # warm-up only

    def test_producer_consumer_delivers_in_order(self):
        config = config_for_cores(16)
        for protocol in PROTOCOLS:
            result = run_workload(ProducerConsumer(rounds=6), protocol, config, seed=1)
            assert result.cycles > 0  # no deadlock = ordered handoffs held

    def test_all_to_all_transpose_traffic_lower_on_denovo(self):
        config = config_for_cores(16)
        mesi = run_workload(AllToAll(rounds=4), "MESI", config, seed=1)
        denovo = run_workload(AllToAll(rounds=4), "DeNovoSync", config, seed=1)
        assert denovo.total_traffic < mesi.total_traffic

    def test_invalid_rounds_rejected(self):
        with pytest.raises(ValueError):
            PingPong(rounds=0)

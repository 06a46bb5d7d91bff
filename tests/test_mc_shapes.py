"""The section 4 SC conditions on small op-list shapes, under every protocol.

The paper derives DeNovoSync from four sufficient conditions for
sequentially consistent synchronization: write propagation, write
atomicity, write serialization and program order.  Each shape below is a
few per-core lists of sync stores, sync loads, data stores and
fetch-and-increments, explored exhaustively (``bound=None``, DPOR only)
by :func:`repro.mc.explore` under every registered protocol.  Every
execution is checked three ways: each read and RMW result against the
sequentially consistent reference for its interleaving, the coherence
invariants before every protocol call, and the final footprint memory.
The classic litmus shapes also assert their SC-forbidden outcome never
appears, and message passing that its all-seen outcome does.
"""

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.cpu.isa import Fai, Load, Store
from repro.mc import LitmusTest, explore
from repro.mc.litmus import LitmusInstance
from repro.mem.address import AddressMap
from repro.mem.regions import RegionAllocator
from repro.protocols import protocol_names

#: Symbolic words; :meth:`Shape.build` maps them to allocated addresses.
A, B = 0, 1


def sync_store(word, value):
    return Store(word, value, sync=True)


def sync_load(word):
    return Load(word, sync=True)


def data_store(word, value):
    return Store(word, value)


class Shape(LitmusTest):
    """Per-core op lists over symbolic words.  Each word gets its own
    sync line (``alloc_sync``), or all share one line with ``one_line``."""

    def __init__(self, name, programs, *, one_line=False):
        self.name = name
        self.programs = programs
        self.one_line = one_line

    def build(self, config):
        allocator = RegionAllocator(AddressMap(config))
        words = sorted({op.addr for program in self.programs for op in program})
        if self.one_line:
            base = allocator.alloc_sync(f"{self.name}.line", len(words)).base
            addrs = {word: base + i for i, word in enumerate(words)}
        else:
            addrs = {
                word: allocator.alloc_sync(f"{self.name}.{word}").base for word in words
            }

        def run(program):
            for op in program:
                yield replace(op, addr=addrs[op.addr])

        programs = [run(program) for program in self.programs]
        programs += [run(()) for _ in range(config.num_cores - len(programs))]
        return LitmusInstance(name=self.name, allocator=allocator, programs=programs)


SHAPES = {shape.name: shape for shape in [
    # Message passing: publish two words, read them back in reverse.
    Shape("mp", [[sync_store(A, 1), sync_store(B, 2)], [sync_load(B), sync_load(A)]]),
    # Two cores write one word, then each reads it back.
    Shape("two_writers", [[sync_store(A, 1), sync_load(A)], [sync_store(A, 2), sync_load(A)]]),
    # Three cores increment one word twice each: the FAI-ticket core case.
    Shape("fai_storm", [[Fai(A), Fai(A)] for _ in range(3)]),
    # A data store published by a sync store, with an RMW racing on the data word.
    Shape("mixed", [
        [data_store(A, 5), sync_store(B, 1)], [sync_load(B), sync_load(B)], [Fai(A)],
    ]),
    # Sync readers of one word against a writer: registration ping-pong.
    Shape("read_storm", [[sync_load(A), sync_load(A)]] * 2 + [[sync_store(A, 7)]]),
    Shape("false_sharing", [
        [sync_store(A, 1), sync_load(B)], [sync_store(B, 2), sync_load(A)],
    ], one_line=True),
    # MESI-RFO's ownership-taking sync read against an RMW on one word.
    Shape("store_vs_fai", [[sync_store(A, 1), sync_load(A)], [Fai(A), sync_load(A)]]),
    Shape("sb", [[sync_store(A, 1), sync_load(B)], [sync_store(B, 1), sync_load(A)]]),
    Shape("lb", [[sync_load(A), sync_store(B, 1)], [sync_load(B), sync_store(A, 1)]]),
    Shape("iriw", [
        [sync_store(A, 1)], [sync_store(B, 1)],
        [sync_load(A), sync_load(B)], [sync_load(B), sync_load(A)],
    ]),
    # CoRR: two reads of one word never go backwards.
    Shape("corr", [[sync_store(A, 1)], [sync_load(A), sync_load(A)]]),
]}

#: The outcome SC forbids, keyed by the (core, op index) of each load.
FORBIDDEN = {
    "mp": {(1, 0): 2, (1, 1): 0},
    "sb": {(0, 1): 0, (1, 1): 0},
    "lb": {(0, 0): 1, (1, 0): 1},
    "iriw": {(2, 0): 1, (2, 1): 0, (3, 0): 1, (3, 1): 0},
    "corr": {(1, 0): 1, (1, 1): 0},
}

#: An outcome that must be reachable: the reader sees both writes.
REACHABLE = {"mp": {(1, 0): 2, (1, 1): 1}}

#: Naive interleaving counts: multinomials over the per-core op counts.
NAIVE = {"mp": 6, "fai_storm": 90}

#: Core 0's data store and core 2's FAI on A are unordered, which is
#: outside Neat's contract (data is ordered only at releases): the FAI
#: updates the backing store while core 0 still holds A dirty.
NEAT_MIXED = ("mixed", "Neat")

CASES = [
    (name, protocol)
    for name in SHAPES
    for protocol in protocol_names()
    if (name, protocol) != NEAT_MIXED
]


def explore_outcomes(name, protocol):
    """Exhaustively explore one shape; returns (result, outcomes), each
    outcome a frozenset of ((core, op index), loaded value) pairs."""
    outcomes = set()

    def observe(execution):
        index = defaultdict(int)
        loads = {}
        for step in execution.steps:
            core = step.choice[1]
            if isinstance(step.op, Load):
                loads[(core, index[core])] = step.records[-1].value
            index[core] += 1
        outcomes.add(frozenset(loads.items()))

    result = explore(SHAPES[name], protocol, bound=None, on_execution=observe)
    return result, outcomes


@pytest.mark.parametrize("name,protocol", CASES)
def test_shape_is_sequentially_consistent(name, protocol):
    result, outcomes = explore_outcomes(name, protocol)
    assert result.violation is None, result.violation.describe()
    assert not result.truncated
    assert outcomes
    if name in NAIVE:
        assert result.naive_estimate == NAIVE[name]
    if name in FORBIDDEN:
        forbidden = frozenset(FORBIDDEN[name].items())
        assert not any(forbidden <= outcome for outcome in outcomes)
    if name in REACHABLE:
        assert frozenset(REACHABLE[name].items()) in outcomes


def test_unordered_data_store_breaks_neat_freshness():
    result, _ = explore_outcomes(*NEAT_MIXED)
    assert result.violation is not None
    assert result.violation.kind == "invariant"
    assert "dirty copy at core 0 is stale" in result.violation.message


def test_planted_stale_sync_read_is_a_conformance_violation(monkeypatch):
    from repro.protocols import denovosync0 as ds0mod

    original = ds0mod.DeNovoSync0Protocol.sync_load

    def broken(self, core_id, addr):
        _, latency, hit, retry = original(self, core_id, addr)
        return (999_999, latency, hit, retry)

    monkeypatch.setattr(ds0mod.DeNovoSync0Protocol, "sync_load", broken)
    result, _ = explore_outcomes("corr", "DeNovoSync0")
    assert result.violation is not None
    assert result.violation.kind == "conformance"

"""Memory-model litmus tests for synchronization accesses.

The paper takes sequential consistency as the correctness criterion for
synchronization (section 4).  These tests run the classic litmus shapes
— message passing, store buffering, load buffering, IRIW — over *every*
interleaving of the per-core programs under every protocol, collect the
observed outcome tuples, and assert the SC-forbidden outcomes never
appear (and, for confidence, that the SC-allowed ones do).
"""

from itertools import permutations

import pytest

from repro.config import config_for_cores
from repro.protocols import make_protocol, protocol_names

X = 64  # two sync variables on distinct lines
Y = 160

PROTOCOL_NAMES = list(protocol_names())


def run_all_interleavings(protocol_name, programs):
    """Programs are lists of ("store", addr, value) / ("load", addr, tag).

    Returns the set of observed outcomes: frozensets of (tag, value).
    """
    tokens = []
    for core, program in enumerate(programs):
        tokens.extend([core] * len(program))
    outcomes = set()
    seen = set()
    for perm in permutations(tokens):
        if perm in seen:
            continue
        seen.add(perm)
        protocol = make_protocol(protocol_name, config_for_cores(4))
        positions = [0] * len(programs)
        observed = []
        now = 0
        for core in perm:
            op = programs[core][positions[core]]
            positions[core] += 1
            now += 2000
            protocol.now = now
            if op[0] == "store":
                protocol.store(core, op[1], op[2], sync=True, ticketed=True)
            else:
                access = protocol.load(core, op[1], sync=True, ticketed=True)
                observed.append((op[2], access.value))
        outcomes.add(frozenset(observed))
    return outcomes


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
class TestLitmus:
    def test_message_passing(self, protocol):
        """MP: r1=1, r2=0 is forbidden (no reordering of the writes)."""
        programs = [
            [("store", X, 1), ("store", Y, 1)],
            [("load", Y, "r1"), ("load", X, "r2")],
        ]
        outcomes = run_all_interleavings(protocol, programs)
        forbidden = frozenset({("r1", 1), ("r2", 0)})
        assert forbidden not in outcomes
        # The all-seen outcome must be reachable.
        assert frozenset({("r1", 1), ("r2", 1)}) in outcomes

    def test_store_buffering(self, protocol):
        """SB: r1=0, r2=0 is forbidden under SC (allowed under TSO)."""
        programs = [
            [("store", X, 1), ("load", Y, "r1")],
            [("store", Y, 1), ("load", X, "r2")],
        ]
        outcomes = run_all_interleavings(protocol, programs)
        forbidden = frozenset({("r1", 0), ("r2", 0)})
        assert forbidden not in outcomes

    def test_load_buffering(self, protocol):
        """LB: r1=1, r2=1 is forbidden (loads cannot see future stores)."""
        programs = [
            [("load", X, "r1"), ("store", Y, 1)],
            [("load", Y, "r2"), ("store", X, 1)],
        ]
        outcomes = run_all_interleavings(protocol, programs)
        forbidden = frozenset({("r1", 1), ("r2", 1)})
        assert forbidden not in outcomes

    def test_iriw(self, protocol):
        """IRIW: the two readers must agree on the write order."""
        programs = [
            [("store", X, 1)],
            [("store", Y, 1)],
            [("load", X, "a1"), ("load", Y, "a2")],
            [("load", Y, "b1"), ("load", X, "b2")],
        ]
        outcomes = run_all_interleavings(protocol, programs)
        # Forbidden: reader A sees X before Y, reader B sees Y before X.
        forbidden = frozenset(
            {("a1", 1), ("a2", 0), ("b1", 1), ("b2", 0)}
        )
        assert forbidden not in outcomes

    def test_coherence_single_location(self, protocol):
        """CoRR: two reads of one location never go backwards."""
        programs = [
            [("store", X, 1)],
            [("load", X, "r1"), ("load", X, "r2")],
        ]
        outcomes = run_all_interleavings(protocol, programs)
        forbidden = frozenset({("r1", 1), ("r2", 0)})
        assert forbidden not in outcomes

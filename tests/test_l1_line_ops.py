"""Line-granular DeNovo L1 operations against the per-word reference.

``DeNovoL1.fill_line_valid`` fills a line with one frame lookup, and
``DeNovoL1.self_invalidate_region`` drops a region's Valid words with
inlined address math.  Both must leave the cache exactly as the per-word
code they replaced: a ``state_of(touch=False)`` + ``fill_word(VALID)``
pair per candidate word, and a ``line_of``/``get(touch=False)``/
``word_in_line`` round per tracked word.  That per-word code is kept
here as the reference (:class:`PerWordL1` and
:func:`per_word_fill_line_valid_words`).

Every case runs the same operations on two identically seeded protocols,
one with the line operations and one with the reference, and after every
step compares what either could observe: word states and values, per-set
LRU order, the region-indexed Valid tracking, the eviction callbacks
(arguments and order), the returned counts, and the protocol's registry,
backing store, counters and traffic.  Each case runs on a 4-core machine
and on a 9-core one, whose 9 LLC banks are not a power of two.

The allocator records a region per line where one allocation covers the
line and per word where an allocation boundary splits it, and
``fill_line_valid`` has a branch for each.  The reference's ``fill_word``
reads both maps word by word, so the split-line case below checks the
line fill's two branches against it.
"""

from __future__ import annotations

import random
from collections import Counter
from types import MethodType

import pytest

from repro.config import config_for_cores
from repro.mem.address import AddressMap
from repro.mem.l1 import DeNovoL1, DeNovoState
from repro.mem.regions import RegionAllocator
from repro.protocols import make_protocol
from repro.protocols.denovo_base import DeNovoBaseProtocol
from repro.protocols.registry import protocol_names

#: Random streams drive cores 0-3 on either machine size, so the same
#: seed replays the same operations and replacement stays frequent.
STREAM_CORES = 4
_BUILT = {name: make_protocol(name, config_for_cores(4)) for name in protocol_names()}
#: Every registry protocol whose L1s are DeNovoL1s ...
DENOVO_L1_PROTOCOLS = [n for n, p in _BUILT.items() if isinstance(p.l1s[0], DeNovoL1)]
#: ... and those of them that keep a DeNovo registry.
REGISTRY_PROTOCOLS = [n for n, p in _BUILT.items() if isinstance(p, DeNovoBaseProtocol)]


class PerWordL1(DeNovoL1):
    """DeNovoL1 with the per-word fill and self-invalidation loops."""

    def fill_line_valid(self, line, addrs, values):
        filled = 0
        for addr in addrs:
            if self.state_of(addr, touch=False) is not DeNovoState.INVALID:
                continue
            self.fill_word(addr, values.get(addr, 0), DeNovoState.VALID)
            filled += 1
        return filled

    def self_invalidate_region(self, region_id):
        addrs = self._valid_by_region.pop(region_id, None)
        if not addrs:
            return 0
        dropped = 0
        for addr in addrs:
            frame = self._dir.get(self.amap.line_of(addr), touch=False)
            if frame is None:
                continue
            off = self.amap.word_in_line(addr)
            if frame.states.get(off) is DeNovoState.VALID:
                frame.states.pop(off, None)
                frame.values.pop(off, None)
                dropped += 1
        return dropped


def per_word_fill_line_valid_words(self, core_id, line, from_owner):
    """``DeNovoBaseProtocol._fill_line_valid_words`` as a per-word loop."""
    l1 = self.l1s[core_id]
    filled = 0
    for word_addr in self.amap.words_of_line(line):
        registrant = self.registry.get(word_addr)
        if from_owner is None:
            available = registrant is None or registrant == core_id
        else:
            available = registrant == from_owner
        if not available:
            continue
        if l1.state_of(word_addr, touch=False) is not DeNovoState.INVALID:
            continue
        l1.fill_word(word_addr, self._mem_get(word_addr, 0), DeNovoState.VALID)
        filled += 1
    return filled


class Machine:
    """One protocol over a small address pool whose lines crowd two sets.

    With ``split``, the pool is instead the two lines an allocation ends
    in the middle of, each with ``assoc + 2`` more lines of its set.
    """

    def __init__(
        self, protocol: str, reference: bool, cores: int, split: bool = False
    ) -> None:
        config = config_for_cores(cores)
        amap = AddressMap(config)
        allocator = RegionAllocator(amap)
        self.words = config.words_per_line
        sets, assoc = config.l1_sets, config.l1_assoc
        #: assoc + 3 lines in each of two sets, so fills evict.
        self.lines = [s + k * sets for s in (1, 2) for k in range(1, assoc + 4)]
        # Three regions cover the lower lines; the top ones have none
        # (their Valid words are tracked under region id None).
        top = max(self.lines) * self.words
        allocs = [allocator.alloc(name, top // 4) for name in ("a", "b", "c")]
        self.regions = [allocator.region(name) for name in ("a", "b", "c")]
        #: Lines 177 (the end of region a, the start of b) and 530 (the
        #: end of c, then unallocated words).
        self.split_lines = [a.end // self.words for a in allocs if a.end % self.words]
        if split:
            self.lines = [
                line + k * sets for line in self.split_lines for k in range(-2, assoc + 1)
            ]
        self.protocol = make_protocol(protocol, config, allocator)
        self.evictions: list[tuple[int, int, int]] = []
        #: Line fills that filled a word, by the branch of fill_line_valid
        #: that ran ("covered" or "per-word"), and the lines they filled.
        self.fills: Counter[str] = Counter()
        self.filled_lines: set[int] = set()
        for core, l1 in enumerate(self.protocol.l1s):
            if reference:
                l1.__class__ = PerWordL1
            l1._on_evict_registered = self._logged(core, l1._on_evict_registered)
            l1.fill_line_valid = self._counted(l1, l1.fill_line_valid)
        if reference and isinstance(self.protocol, DeNovoBaseProtocol):
            self.protocol._fill_line_valid_words = MethodType(
                per_word_fill_line_valid_words, self.protocol
            )

    def _logged(self, core, handler):
        def on_evict(addr, value):
            self.evictions.append((core, addr, value))
            handler(addr, value)

        return on_evict

    def _counted(self, l1, fill_line_valid):
        def counted(line, addrs, values):
            filled = fill_line_valid(line, addrs, values)
            if filled:
                self.fills["covered" if line in l1._line_regions else "per-word"] += 1
                self.filled_lines.add(line)
            return filled

        return counted

    def fill(self, core: int, line: int, from_owner: int | None) -> int:
        """One line fill the way the protocol's load miss makes it."""
        proto = self.protocol
        if isinstance(proto, DeNovoBaseProtocol):
            return proto._fill_line_valid_words(core, line, from_owner)
        # Neat: the LLC supplies every word of the line.
        return proto.l1s[core].fill_line_valid(
            line, proto.amap.words_of_line(line), proto._mem_values
        )

    def snapshot(self):
        proto = self.protocol
        caches = []
        for l1 in proto.l1s:
            caches.append((
                l1.words_and_states(),
                [list(frame.values.items()) for _, frame in l1._dir],
                {i: list(group) for i, group in enumerate(l1._dir._sets) if group},
                sorted(l1.tracked_valid_words()),
                [(rid, sorted(b)) for rid, b in l1._valid_by_region.items()],
            ))
        return (
            caches,
            list(self.evictions),
            sorted(getattr(proto, "registry", {}).items()),
            [sorted(d) for d in getattr(proto, "_dirty", [])],
            sorted(proto._mem_values.items()),
            sorted(proto.counters.as_dict().items()),
            proto.traffic.breakdown(),
        )


def twins(protocol: str, cores: int, split: bool = False) -> tuple[Machine, Machine]:
    return (
        Machine(protocol, reference=False, cores=cores, split=split),
        Machine(protocol, reference=True, cores=cores, split=split),
    )


def _random_op(rng: random.Random, machine: Machine):
    """An operation as data, so both twins replay the same one."""
    kind = rng.choices(
        ("load", "store", "sync", "fill", "selfinv", "selfinv_all"),
        weights=(6, 4, 1, 3, 2, 1),
    )[0]
    core = rng.randrange(STREAM_CORES)
    line = rng.choice(machine.lines)
    addr = line * machine.words + rng.randrange(machine.words)
    if kind == "fill":
        # Owners include cores that registered nothing in the line.
        return kind, core, line, rng.choice((None, None, *range(STREAM_CORES)))
    if kind == "selfinv":
        return kind, core, rng.randrange(len(machine.regions)), None
    return kind, core, addr, rng.randrange(1, 1000)


def _apply(machine: Machine, op, now: int):
    proto = machine.protocol
    proto.now = now
    kind, core, target, arg = op
    if kind == "load":
        value, latency, hit, _ = proto.load(core, target)
        return value, latency, hit
    if kind == "store":
        value, latency, hit, _ = proto.store(core, target, arg)
        return value, latency, hit
    if kind == "sync":
        value, latency, hit, _ = proto.load(core, target, sync=True)
        return value, latency, hit
    if kind == "fill":
        return machine.fill(core, target, arg)
    if kind == "selfinv":
        return proto.self_invalidate(core, [machine.regions[target]])
    return proto.self_invalidate(core, [], flush_all=True)


@pytest.fixture(params=[4, 9], ids=["pow2", "generic"])
def cores(request):
    """Machine size: 4 LLC banks (a power of two) or 9 (not one)."""
    return request.param


@pytest.mark.parametrize("protocol", DENOVO_L1_PROTOCOLS)
@pytest.mark.parametrize("seed", range(3))
def test_random_streams_match_per_word_reference(protocol, seed, cores):
    """Seeded loads, stores, sync reads, direct LLC and remote-owner fills
    and self-invalidations over lines that overflow their sets."""
    new, ref = twins(protocol, cores)
    assert new.protocol.amap.num_banks == cores
    _replay_random_stream(new, ref, seed)


def _replay_random_stream(new: Machine, ref: Machine, seed: int) -> None:
    assert new.snapshot() == ref.snapshot()
    rng = random.Random(seed)
    now = 0
    for step in range(200):
        op = _random_op(rng, new)
        now += rng.randrange(0, 40)
        got, want = _apply(new, op, now), _apply(ref, op, now)
        assert got == want, (step, op)
        assert new.snapshot() == ref.snapshot(), (step, op)
        assert not _misindexed_words(new), (step, op)
    # The stream exercised what it is meant to.
    assert new.evictions, "no replacement happened"
    assert any(state is DeNovoState.VALID
               for l1 in new.protocol.l1s for _, state in l1.words_and_states())


def _misindexed_words(machine: Machine) -> list[tuple[int, int | None]]:
    """(word, id) pairs the Valid index holds under an id that is not the
    word's ``region_of`` (the reference's lookups are the L1's own)."""
    region_of = machine.protocol.allocator.region_of
    out = []
    for l1 in machine.protocol.l1s:
        for rid, bucket in l1._valid_by_region.items():
            for addr in bucket:
                region = region_of(addr)
                if (region.region_id if region is not None else None) != rid:
                    out.append((addr, rid))
    return out


@pytest.mark.parametrize("protocol", DENOVO_L1_PROTOCOLS)
@pytest.mark.parametrize("seed", range(3))
def test_split_lines_match_per_word_reference(protocol, seed, cores):
    """The random streams over a line shared by two regions, a line shared
    by a region and unallocated words, and covered and unallocated lines
    of their sets: line fills take both branches of fill_line_valid."""
    new, ref = twins(protocol, cores, split=True)
    allocator = new.protocol.allocator
    a, b, c = new.regions
    assert [
        {allocator.region_of(addr) for addr in range(line * new.words, (line + 1) * new.words)}
        for line in new.split_lines
    ] == [{a, b}, {c, None}]
    _replay_random_stream(new, ref, seed)
    assert new.fills["covered"] and new.fills["per-word"], new.fills
    assert set(new.split_lines) <= new.filled_lines


@pytest.mark.parametrize("protocol", DENOVO_L1_PROTOCOLS)
def test_full_set_evicts_a_line_holding_registered_words(protocol, cores):
    new, ref = twins(protocol, cores)
    words = new.words
    lines = new.lines[: new.protocol.config.l1_assoc + 1]
    for machine in (new, ref):
        proto = machine.protocol
        for i, line in enumerate(lines[:-1]):
            base = line * words
            proto.store(0, base, 100 + i)  # Registered (Neat: dirty)
            proto.store(0, base + 3, 200 + i)
            proto.store(1, base + 5, 300 + i)  # registered elsewhere
            proto._mem_values[base + 7] = 400 + i
        assert machine.fill(0, lines[0], None) > 0  # the LRU line's Valid words
        for line in lines[1:-1]:  # ... then make it the LRU line again
            proto.l1s[0].state_of(line * words)
    assert new.snapshot() == ref.snapshot()
    got = new.fill(0, lines[-1], None)
    want = ref.fill(0, lines[-1], None)
    assert got == want == words  # every word of a fresh line fills
    assert new.snapshot() == ref.snapshot()
    victim = lines[0] * words
    assert [e[:2] for e in new.evictions] == [(0, victim), (0, victim + 3)]


@pytest.mark.parametrize("protocol", DENOVO_L1_PROTOCOLS)
def test_a_line_where_nothing_fills_changes_nothing(protocol, cores):
    new, ref = twins(protocol, cores)
    words = new.words
    assoc = new.protocol.config.l1_assoc
    full, fresh = new.lines[:assoc], new.lines[assoc]
    for machine in (new, ref):
        proto = machine.protocol
        for i, line in enumerate(full):
            proto.store(0, line * words, i)  # set full, one Registered word each
            machine.fill(0, line, None)  # ... and the rest Valid
        if isinstance(proto, DeNovoBaseProtocol):
            for addr in range(fresh * words, (fresh + 1) * words):
                proto.registry[addr] = 2  # the LLC can supply none of them
    before = new.snapshot()
    assert before == ref.snapshot()
    l1 = new.protocol.l1s[0]
    lru = list(l1._dir._sets[full[0] % l1._dir.num_sets])
    assert lru[0] == full[0]

    # A resident line whose words are all present: no LRU touch.
    assert new.fill(0, full[0], None) == ref.fill(0, full[0], None) == 0
    assert new.snapshot() == ref.snapshot() == before
    assert list(l1._dir._sets[full[0] % l1._dir.num_sets]) == lru
    # A remote owner with nothing registered in a resident line.
    assert new.fill(0, full[1], 3) == ref.fill(0, full[1], 3) == 0
    assert new.snapshot() == ref.snapshot() == before
    # No candidate word for an absent line in a full set: nothing is
    # allocated and nothing is evicted.
    fresh_words = new.protocol.amap.words_of_line(fresh)
    assert l1.fill_line_valid(fresh, [], new.protocol._mem_values) == 0
    assert ref.protocol.l1s[0].fill_line_valid(
        fresh, [], ref.protocol._mem_values
    ) == 0
    if isinstance(new.protocol, DeNovoBaseProtocol):
        assert new.fill(0, fresh, None) == ref.fill(0, fresh, None) == 0
        assert new.fill(0, fresh, 3) == ref.fill(0, fresh, 3) == 0
    assert new.snapshot() == ref.snapshot() == before
    assert fresh not in l1.resident_lines()
    assert l1.state_of(fresh_words[0], touch=False) is DeNovoState.INVALID


@pytest.mark.parametrize("protocol", DENOVO_L1_PROTOCOLS)
def test_self_invalidation_matches_per_word_reference(protocol, cores):
    """Valid, Registered and downgraded words across three regions and
    the no-region bucket, plus stale tracking entries; every region, then
    the whole cache."""
    new, ref = twins(protocol, cores)
    for machine in (new, ref):
        rng = random.Random(7)
        proto = machine.protocol
        l1 = proto.l1s[0]
        for line in new.lines[:6] + new.lines[-4:]:
            base = line * new.words
            proto.store(0, base + rng.randrange(new.words), rng.randrange(99))
            machine.fill(0, line, None)
        first = l1.words_and_states()[0][0]
        l1.fill_word(first, 5, DeNovoState.REGISTERED)
        l1.downgrade(first, DeNovoState.VALID)
        # The tracking may hold a superset of the Valid words: stale
        # entries for every Registered word and for a word never cached.
        registered = [a for a, st in l1.words_and_states()
                      if st is DeNovoState.REGISTERED]
        for addr in [*registered, 3 * new.words]:
            region = proto.allocator.region_of(addr)
            rid = region.region_id if region is not None else None
            l1._valid_by_region.setdefault(rid, set()).add(addr)
    assert registered
    assert new.snapshot() == ref.snapshot()
    for region in new.regions:
        got = new.protocol.l1s[0].self_invalidate_region(region.region_id)
        want = ref.protocol.l1s[0].self_invalidate_region(region.region_id)
        assert got == want > 0
        assert new.snapshot() == ref.snapshot()
    # Words outside every region, then an empty region.
    assert new.protocol.l1s[0].self_invalidate_all() == (
        ref.protocol.l1s[0].self_invalidate_all()
    ) > 0
    assert new.protocol.l1s[0].self_invalidate_region(0) == 0
    assert new.snapshot() == ref.snapshot()
    states = [state for _, state in new.protocol.l1s[0].words_and_states()]
    assert DeNovoState.VALID not in states
    assert states.count(DeNovoState.REGISTERED) == len(registered)


@pytest.mark.parametrize("protocol", REGISTRY_PROTOCOLS)
def test_llc_fill_supplies_words_registered_to_the_requester(protocol, cores):
    """The LLC holds every word not registered at *another* core: a word
    the registry credits to the requester fills like an unregistered one
    when the requester's L1 does not hold it."""
    new, ref = twins(protocol, cores)
    line = new.lines[0]
    base = line * new.words
    for machine in (new, ref):
        registry = machine.protocol.registry
        registry[base] = 0
        registry[base + 1] = 1
        registry[base + 2] = 0
        machine.protocol._mem_values[base + 2] = 9
    assert new.fill(0, line, None) == ref.fill(0, line, None) == new.words - 1
    assert new.snapshot() == ref.snapshot()
    l1 = new.protocol.l1s[0]
    assert l1.state_of(base, touch=False) is DeNovoState.VALID
    assert l1.state_of(base + 1, touch=False) is DeNovoState.INVALID
    assert l1.value_of(base + 2) == 9

"""Private L1 cache structures.

Two flavours, matching the two protocol families:

* :class:`MesiL1` keeps coherence state per cache line (M/E/S; absence
  means Invalid).  MESI hits are never stale (writers invalidate sharers
  before committing), so values are always served from the backing store
  and the L1 only tracks state and LRU order.
* :class:`DeNovoL1` keeps per-word state (Invalid/Valid/Registered) and
  per-word *values*, because DeNovo Valid copies may legitimately be stale
  until a self-invalidation.  Frames are still allocated per line and LRU
  is maintained at line granularity, as in the paper's hardware.

Both caches are set-associative with LRU replacement within each set.

Spin leases (:meth:`repro.protocols.base.CoherenceProtocol.spin_poll_lease`)
never touch the L1: a lease is only granted for polls that bypass it
(Neat sync reads drop any cached copy and never refill it), so LRU order
and line state are byte-identical whether the poll was simulated in full
or closed-formed.
"""

from __future__ import annotations

from collections import OrderedDict
from enum import Enum
from collections.abc import Callable, Sequence

from repro.config import SystemConfig
from repro.mem.address import AddressMap
from repro.mem.regions import Region


class MesiState(Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"


#: The members as module constants, the spelling simulation code uses:
#: CPython 3.11 never specializes an ``Enum.MEMBER`` load (``EnumType``
#: defines ``__getattr__``), which costs about 100 ns more than a global.
MODIFIED, EXCLUSIVE, SHARED = MesiState


class DeNovoState(Enum):
    INVALID = "I"
    VALID = "V"
    REGISTERED = "R"


#: Module constants, as for :class:`MesiState`.
INVALID, VALID, REGISTERED = DeNovoState


class _SetAssocDirectory:
    """Shared LRU machinery: maps line -> entry within set-indexed ways."""

    def __init__(self, config: SystemConfig) -> None:
        self.num_sets = config.l1_sets
        self.assoc = config.l1_assoc
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]

    def _set_of(self, line: int) -> OrderedDict:
        return self._sets[line % self.num_sets]

    def get(self, line: int, touch: bool = True):
        # Set indexing is inlined here (and in put/pop): this runs once or
        # more per simulated memory operation.
        group = self._sets[line % self.num_sets]
        entry = group.get(line)
        if entry is not None and touch:
            group.move_to_end(line)
        return entry

    def put(self, line: int, entry) -> tuple[int, object] | None:
        """Insert/replace ``line``; return an evicted (line, entry) or None."""
        group = self._sets[line % self.num_sets]
        victim = None
        if line not in group and len(group) >= self.assoc:
            victim = group.popitem(last=False)
        group[line] = entry
        group.move_to_end(line)
        return victim

    def replace(self, line: int, entry) -> None:
        """Overwrite the entry of a resident ``line`` without touching LRU.

        Used for transitions forced by *remote* activity (e.g. a MESI owner
        downgraded to Shared by another core's load): the local core did not
        access the line, so its recency must not change.
        """
        group = self._set_of(line)
        if line not in group:
            raise KeyError(f"line {line} not resident")
        group[line] = entry

    def pop(self, line: int):
        return self._sets[line % self.num_sets].pop(line, None)

    def __iter__(self):
        for group in self._sets:
            yield from group.items()

    def __len__(self) -> int:
        return sum(len(group) for group in self._sets)


class MesiL1:
    """Line-granularity MESI L1 for one core."""

    def __init__(self, core_id: int, config: SystemConfig) -> None:
        self.core_id = core_id
        self._dir = _SetAssocDirectory(config)
        # state_of runs once or more per memory operation: index the
        # directory's sets directly rather than through _dir.get.
        self._dsets = self._dir._sets
        self._dnsets = self._dir.num_sets

    def state_of(self, line: int, touch: bool = True) -> MesiState | None:
        group = self._dsets[line % self._dnsets]
        entry = group.get(line)
        if entry is not None and touch:
            group.move_to_end(line)
        return entry

    def insert(self, line: int, state: MesiState) -> tuple[int, MesiState] | None:
        """Fill ``line`` in ``state``; return the evicted (line, state) if any."""
        return self._dir.put(line, state)

    def set_state(self, line: int, state: MesiState) -> None:
        """Change the coherence state of a resident line *in place*.

        Deliberately does not refresh LRU recency: state changes driven by
        remote requests (owner downgrade on a forwarded load, for example)
        are not local accesses, so they must not keep the line artificially
        hot in this core's replacement order.  Local accesses touch the
        line through :meth:`state_of` before calling this.
        """
        if self._dir.get(line, touch=False) is None:
            raise KeyError(f"line {line} not present in L1 {self.core_id}")
        self._dir.replace(line, state)

    def invalidate(self, line: int) -> MesiState | None:
        """Drop ``line`` (writer-initiated invalidation); return old state."""
        return self._dir.pop(line)

    def resident_lines(self) -> list[int]:
        return [line for line, _ in self._dir]

    def lines_and_states(self) -> list[tuple[int, MesiState]]:
        """Every resident (line, state) pair (for invariant audits)."""
        return list(self._dir)

    def __len__(self) -> int:
        return len(self._dir)


class DeNovoFrame:
    """One line frame: per-word state and value (keyed by word-in-line).

    A plain slotted class: one is built per line fill, and a dataclass
    would add a ``__dict__`` and a ``default_factory`` call per field.
    """

    __slots__ = ("states", "values")

    def __init__(self) -> None:
        self.states: dict[int, DeNovoState] = {}
        self.values: dict[int, int] = {}

    def registered_offsets(self) -> list[int]:
        return [
            off for off, st in self.states.items() if st is REGISTERED
        ]


class DeNovoL1:
    """Word-granularity DeNovo L1 for one core.

    State and values are per word; frames and LRU order are per line.  A
    frame is allocated, and its line touched, only when a word actually
    fills: :meth:`fill_line_valid` installs every still-Invalid word of a
    line's candidates with one frame lookup and changes nothing when no
    candidate is Invalid.  Valid words are also indexed by region id, so
    :meth:`self_invalidate_region` visits only the words it may drop.  The
    index is word-granular, but regions are looked up the way the
    allocator records them (:meth:`set_region_lookup`): a fill of a line
    one allocation covers resolves its region once for the whole line.

    ``on_evict_registered(addr, value)`` is called for every Registered word
    lost to replacement so the protocol can write the value back to the
    registry (a DeNovo writeback is a word-granularity registration return).
    """

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        amap: AddressMap,
        on_evict_registered: Callable[[int, int], None] | None = None,
    ) -> None:
        self.core_id = core_id
        self.amap = amap
        # The per-word hot paths inline the AddressMap arithmetic
        # (``addr // wpl``, ``addr % wpl``, ``line * wpl``).
        self._wpl = amap.words_per_line
        self._dir = _SetAssocDirectory(config)
        # state_of/value_of run several times per memory operation, so
        # they index the directory's sets directly (one dict get instead
        # of a method-call layer).
        self._dsets = self._dir._sets
        self._dnsets = self._dir.num_sets
        self._on_evict_registered = on_evict_registered
        # region_id -> set of word addresses currently Valid, for O(1)
        # selective self-invalidation (addresses outside every region
        # live under None).
        self._valid_by_region: dict[int | None, set[int]] = {}
        # Live views of the allocator's split word -> Region and covered
        # line -> Region maps (empty without an allocator).  The allocator
        # updates them in place, so the references never go stale.
        self._word_regions: dict[int, Region] = {}
        self._line_regions: dict[int, Region] = {}

    def set_region_lookup(
        self, word_regions: dict[int, Region], line_regions: dict[int, Region]
    ) -> None:
        """Install the allocator's region maps (see
        :class:`~repro.mem.regions.RegionAllocator`).

        A word's region is ``word_regions[addr]`` if present, else
        ``line_regions[addr // words_per_line]``; no line may have entries
        in both.  The per-word sites inline that lookup, split-word map
        first, so a padded sync word costs one dict read.
        """
        self._word_regions = word_regions
        self._line_regions = line_regions

    # -- state queries ----------------------------------------------------

    def state_of(self, addr: int, touch: bool = True) -> DeNovoState:
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        group = self._dsets[line % self._dnsets]
        frame = group.get(line)
        if frame is None:
            return INVALID
        if touch:
            group.move_to_end(line)
        return frame.states.get(off, INVALID)

    def present_value(self, addr: int) -> int | None:
        """Value of ``addr`` if Valid or Registered here, else None.

        Combines the ``state_of`` + ``value_of`` pair of the data-access
        hit check into one directory lookup.  LRU semantics match
        ``state_of(touch=True)``: a resident line is touched even when
        the word itself is absent.  (Stored values are ints, so None is
        unambiguous.)
        """
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        group = self._dsets[line % self._dnsets]
        frame = group.get(line)
        if frame is None:
            return None
        group.move_to_end(line)
        if off in frame.states:
            return frame.values[off]
        return None

    def registered_value(self, addr: int) -> int | None:
        """Value of ``addr`` if Registered here, else None (one lookup).

        The sync-access hit check: Valid does not count as a usable copy
        for synchronization reads.  Touch semantics as ``state_of``.
        """
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        group = self._dsets[line % self._dnsets]
        frame = group.get(line)
        if frame is None:
            return None
        group.move_to_end(line)
        if frame.states.get(off) is REGISTERED:
            return frame.values[off]
        return None

    def try_write_registered(self, addr: int, value: int) -> bool:
        """Write ``addr`` if Registered here; True on success.

        The store hit path in one directory lookup.  A resident line is
        touched even when the word is not Registered, as ``state_of``
        would touch it.
        """
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        group = self._dsets[line % self._dnsets]
        frame = group.get(line)
        if frame is None:
            return False
        group.move_to_end(line)
        if frame.states.get(off) is not REGISTERED:
            return False
        frame.values[off] = value
        return True

    def value_of(self, addr: int) -> int | None:
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        frame = self._dsets[line % self._dnsets].get(line)
        if frame is None:
            return None
        return frame.values.get(off)

    # -- fills and upgrades -----------------------------------------------

    def fill_line_valid(
        self, line: int, addrs: Sequence[int], values: dict[int, int]
    ) -> int:
        """Install the Invalid words of ``addrs`` as Valid; return the count.

        ``addrs`` are the words of ``line`` the responder can supply; words
        already Valid or Registered here are left alone.  The frame is
        looked up once.  Only when at least one word fills is it allocated
        (a victim is evicted before any word is written) and touched in
        LRU order, so a fill that brings nothing changes nothing.  Each
        value is ``values.get(addr, 0)`` at fill time (the backing store).
        """
        base = line * self._wpl
        group = self._dsets[line % self._dnsets]
        frame = group.get(line)
        if frame is None:
            fill = addrs
        else:
            held = frame.states
            fill = [addr for addr in addrs if addr - base not in held]
        if not fill:
            return 0
        if frame is None:
            frame = DeNovoFrame()
            victim = self._dir.put(line, frame)
            if victim is not None:
                self._evict_frame(*victim)
        else:
            group.move_to_end(line)
        states, stored = frame.states, frame.values
        get = values.get
        by_region = self._valid_by_region
        region = self._line_regions.get(line)
        if region is not None:
            # One allocation covers the line: one region for every word.
            for addr in fill:
                off = addr - base
                states[off] = VALID
                stored[off] = get(addr, 0)
            bucket = by_region.get(region.region_id)
            if bucket is None:
                bucket = by_region[region.region_id] = set()
            bucket.update(fill)
            return len(fill)
        # A split (or never-allocated) line: no line entry, so each word's
        # region is in the split-word map or is None.
        wmap = self._word_regions
        for addr in fill:
            off = addr - base
            states[off] = VALID
            stored[off] = get(addr, 0)
            region = wmap.get(addr)
            region_id = region.region_id if region is not None else None
            bucket = by_region.get(region_id)
            if bucket is None:
                bucket = by_region[region_id] = set()
            bucket.add(addr)
        return len(fill)

    def fill_word(self, addr: int, value: int, state: DeNovoState) -> None:
        """Install ``addr`` with ``value`` in ``state`` (Valid or Registered)."""
        if state is INVALID:
            raise ValueError("cannot fill a word in Invalid state")
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        group = self._dsets[line % self._dnsets]
        frame = group.get(line)
        if frame is not None:
            group.move_to_end(line)
        else:
            frame = DeNovoFrame()
            victim = self._dir.put(line, frame)
            if victim is not None:
                self._evict_frame(*victim)
        old = frame.states.get(off)
        frame.states[off] = state
        frame.values[off] = value
        # Region tracking inlined: the common sync-path fill (Registered
        # over Registered/absent) takes neither branch and pays no region
        # lookup at all.
        if old is VALID:
            region = self._word_regions.get(addr)
            if region is None:
                region = self._line_regions.get(line)
            region_id = region.region_id if region is not None else None
            bucket = self._valid_by_region.get(region_id)
            if bucket is not None:
                bucket.discard(addr)
        if state is VALID:
            region = self._word_regions.get(addr)
            if region is None:
                region = self._line_regions.get(line)
            region_id = region.region_id if region is not None else None
            self._valid_by_region.setdefault(region_id, set()).add(addr)

    def downgrade(self, addr: int, to: DeNovoState) -> None:
        """Registered -> Valid/Invalid (remote registration took ownership)."""
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        frame = self._dsets[line % self._dnsets].get(line)
        if frame is None:
            return
        old = frame.states.get(off)
        if old is not REGISTERED:
            return
        if to is INVALID:
            frame.states.pop(off, None)
            frame.values.pop(off, None)
            return
        frame.states[off] = to
        region = self._word_regions.get(addr)
        if region is None:
            region = self._line_regions.get(line)
        region_id = region.region_id if region is not None else None
        bucket = self._valid_by_region.get(region_id)
        if bucket is None:
            bucket = self._valid_by_region[region_id] = set()
        bucket.add(addr)

    def invalidate_word(self, addr: int) -> None:
        """Drop one word regardless of state (no writeback)."""
        wpl = self._wpl
        line, off = addr // wpl, addr % wpl
        frame = self._dsets[line % self._dnsets].get(line)
        if frame is None:
            return
        old = frame.states.pop(off, None)
        frame.values.pop(off, None)
        self._untrack_valid(addr, old)

    # -- self-invalidation --------------------------------------------------

    def self_invalidate_region(self, region_id: int) -> int:
        """Invalidate all Valid words of ``region_id``; return count dropped.

        Registered words are untouched: registered data stays in the cache
        across synchronization boundaries (paper section 3, footnote 1).
        """
        addrs = self._valid_by_region.pop(region_id, None)
        if not addrs:
            return 0
        wpl = self._wpl
        sets = self._dsets
        nsets = self._dnsets
        dropped = 0
        for addr in addrs:
            line, off = addr // wpl, addr % wpl
            frame = sets[line % nsets].get(line)
            if frame is None:
                continue
            states = frame.states
            if states.get(off) is VALID:
                del states[off]
                del frame.values[off]
                dropped += 1
        return dropped

    def self_invalidate_all(self) -> int:
        """Invalidate every Valid word (the no-region-information fallback)."""
        dropped = 0
        for region_id in list(self._valid_by_region):
            dropped += self.self_invalidate_region(region_id)
        # Valid words with no known region live under key None.
        return dropped

    # -- internals ----------------------------------------------------------

    def _untrack_valid(self, addr: int, old_state: DeNovoState | None) -> None:
        if old_state is not VALID:
            return
        region = self._word_regions.get(addr)
        if region is None:
            region = self._line_regions.get(addr // self._wpl)
        region_id = region.region_id if region is not None else None
        bucket = self._valid_by_region.get(region_id)
        if bucket is not None:
            bucket.discard(addr)

    def _evict_frame(self, line: int, frame: DeNovoFrame) -> None:
        for off, st in list(frame.states.items()):
            addr = self.amap.line_base(line) + off
            if st is REGISTERED and self._on_evict_registered:
                self._on_evict_registered(addr, frame.values[off])
            self._untrack_valid(addr, st)

    # -- audit / fault-injection accessors ----------------------------------

    def resident_lines(self) -> list[int]:
        return [line for line, _ in self._dir]

    def evict_line(self, line: int) -> DeNovoFrame | None:
        """Force-evict the frame of ``line`` with full writeback handling
        (as replacement would); return the evicted frame, or None if the
        line is not resident."""
        frame = self._dir.pop(line)
        if frame is not None:
            self._evict_frame(line, frame)
        return frame

    def words_and_states(self) -> list[tuple[int, DeNovoState]]:
        """Every cached (word address, state) pair (for invariant audits)."""
        out = []
        for line, frame in self._dir:
            base = self.amap.line_base(line)
            out.extend((base + off, st) for off, st in frame.states.items())
        return out

    def tracked_valid_words(self) -> set[int]:
        """Union of the region-indexed valid-word tracking sets.

        A superset of the actually-Valid words is legal (stale entries are
        filtered at self-invalidation time); a Valid word *missing* from
        it would escape self-invalidation — the invariant checker asserts
        that never happens.
        """
        tracked: set[int] = set()
        for bucket in self._valid_by_region.values():
            tracked |= bucket
        return tracked

    def __len__(self) -> int:
        return len(self._dir)

"""Named memory regions and the shared-variable allocator.

DeNovo's data-consistency story relies on compiler-provided *regions*:
groups of addresses that a synchronization acquire protects, so the
acquiring core can self-invalidate exactly those words.  The allocator
hands out word addresses for shared variables and records which region
each belongs to.  Synchronization variables are padded to their own cache
line by default, matching the common practice the paper notes ("most
software pads lock variables to avoid false sharing"); the lock-padding
ablation turns this off.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro.mem.address import AddressMap


@dataclass(frozen=True, slots=True)
class Region:
    """A named region of shared memory, the unit of self-invalidation."""

    name: str
    region_id: int

    def __str__(self) -> str:
        return self.name


@dataclass
class Allocation:
    """One allocation: ``nwords`` words starting at ``base``."""

    base: int
    nwords: int
    region: Region

    @property
    def end(self) -> int:
        return self.base + self.nwords

    def __iter__(self):
        return iter(range(self.base, self.end))


class RegionAllocator:
    """Bump allocator over the simulated word-address space.

    Also the authority on which region owns each address, which the DeNovo
    L1s consult when tracking valid words for selective self-invalidation.
    A region is recorded once for each line that a single allocation
    covers entirely (the line map), and per word only on the lines an
    allocation boundary splits: an allocation's head and tail lines, and
    a padded sync variable's line (the split-word map).  No line has
    entries in both maps, so a lookup reads the split-word map and, on a
    miss, the line map.  :meth:`region_of` is that lookup; the DeNovo L1
    inlines it on the two live maps (see
    :meth:`repro.mem.l1.DeNovoL1.set_region_lookup`).
    """

    def __init__(self, amap: AddressMap, pad_sync_vars: bool = True) -> None:
        self.amap = amap
        self.pad_sync_vars = pad_sync_vars
        self._wpl = amap.words_per_line
        self._next_addr = self._wpl  # keep address 0 unused
        self._regions: dict[str, Region] = {}
        # Split word address -> Region, and covered line -> Region.  Both
        # are only ever updated in place: the L1s hold live references.
        self._word_regions: dict[int, Region] = {}
        self._line_regions: dict[int, Region] = {}
        self._allocations: list[Allocation] = []

    def region(self, name: str) -> Region:
        """Get or create the region named ``name``."""
        if name not in self._regions:
            self._regions[name] = Region(name=name, region_id=len(self._regions))
        return self._regions[name]

    def alloc(self, name: str, nwords: int = 1, *, line_align: bool = False) -> Allocation:
        """Allocate ``nwords`` consecutive words in region ``name``."""
        if nwords <= 0:
            raise ValueError("nwords must be positive")
        region = self.region(name)
        base = self._next_addr
        if line_align:
            base = self.amap.align_up_to_line(base)
        self._next_addr = base + nwords
        if line_align:
            # Keep the remainder of the last line unused so nothing else
            # ever shares these lines.
            self._next_addr = self.amap.align_up_to_line(self._next_addr)
        alloc = Allocation(base=base, nwords=nwords, region=region)
        wpl = self._wpl
        end = base + nwords
        # Lines first .. last-1 lie wholly inside [base, end).  The other
        # words share their lines with other allocations or with
        # unallocated words.
        first, last = -(-base // wpl), end // wpl
        if first < last:
            self._line_regions.update(dict.fromkeys(range(first, last), region))
            split = chain(range(base, first * wpl), range(last * wpl, end))
        else:
            split = range(base, end)
        for addr in split:
            self._word_regions[addr] = region
        self._allocations.append(alloc)
        return alloc

    def alloc_sync(self, name: str, nwords: int = 1) -> Allocation:
        """Allocate synchronization variables (padded to a line by default)."""
        return self.alloc(name, nwords, line_align=self.pad_sync_vars)

    def region_of(self, addr: int) -> Region | None:
        """Region owning ``addr`` (None for never-allocated addresses)."""
        region = self._word_regions.get(addr)
        if region is None:
            region = self._line_regions.get(addr // self._wpl)
        return region

    @property
    def allocations(self) -> list[Allocation]:
        return list(self._allocations)

    @property
    def words_allocated(self) -> int:
        return self._next_addr

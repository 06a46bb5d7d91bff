"""The global backing store and LLC residency tracking.

The backing store holds the architecturally-latest value of every word.
Protocol invariants keep it coherent with the caches:

* MESI: a write invalidates all sharers at its commit point, so any cached
  copy a core can still hit on equals the backing-store value.
* DeNovo: a Registered word's cached copy is written through to the store
  at the owner's write commit, so registration transfers can always fill
  from the store; Valid copies may be stale, which is exactly the DeNovo
  semantics for data-race-free data.

The store also holds the set of LLC-resident lines.  Only
:meth:`~repro.protocols.base.CoherenceProtocol.llc_fetch_latency` grows
it, on a line's first touch (the cold miss that pays the memory latency
and charges the fill), and nothing removes a line: the modelled LLC
holds every footprint.
"""

from __future__ import annotations


class BackingStore:
    """Word-addressed value store + LLC residency set."""

    def __init__(self) -> None:
        self._values: dict[int, int] = {}
        self._resident_lines: set[int] = set()

    def read(self, addr: int) -> int:
        """Architecturally-latest value of ``addr`` (0 if never written)."""
        return self._values.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self._values[addr] = value

    def snapshot(self) -> dict[int, int]:
        """Copy of every written word (addr -> value), for final-state
        comparison between runs (the chaos differential tests)."""
        return dict(self._values)

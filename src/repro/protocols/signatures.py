"""DeNovoSync with DeNovoND-style hardware write signatures (extension).

The paper's future-work direction ("integrate more dynamic
signature-based coherence support for data accesses with DeNovoSync")
and its suggested remedy for the conservative static self-invalidations
that hurt the heap kernel and fluidanimate: instead of compiler-named
regions, track *exactly which words were written* in hardware.

Mechanics (after DeNovoND, with epoch-tagged delivery):

* each core accumulates a **write signature** — the set of data words it
  has written since its last release;
* a **release** to synchronization variable L appends the signature to
  L's *release log* as an epoch-tagged entry and clears the core's own
  (a wave of consecutive releases with no intervening writes re-attaches
  the same signature);
* an **acquire** of L delivers only the log entries *newer than the
  acquirer's previous acquire of L*: it invalidates its Valid copies of
  those words (Registered copies are its own data and stay) and merges
  them into its own signature, so a later release propagates them —
  happens-before transitivity.  Delta delivery is what preserves cached
  reuse: a lock's k-th holder re-fetches only what the holders since its
  last turn wrote, not the whole protected region;
* hardware capacity is bounded: when a core's signature or a variable's
  log overflows, precision degrades to the always-correct flush-all of
  the acquirer's Valid words (recorded in the ``signature_*`` counters).

Under this protocol the software's region-based ``SelfInvalidate``
instructions are no-ops, so acquire/release-annotated workloads — all
the lock kernels, barriers, and application models here — run correctly
with *no region information at all*.  Exact sets model the optimistic
end of real (Bloom-filter) signatures, whose false positives only add
invalidations.

Like DeNovoND, correctness relies on the data-race-free discipline that
data consistently reaches its readers through the synchronization chain
being acquired; independently-published immutable data (e.g. never-reused
non-blocking queue nodes) is safe because it is only ever read through a
registration miss.
"""

from __future__ import annotations

from collections import deque

from repro.mem.l1 import VALID
from repro.mem.regions import Region
from repro.noc.messages import SYNCH
from repro.protocols.denovosync import DeNovoSyncProtocol
from repro.protocols.registry import register_protocol

#: Words a core signature / variable log can hold before degrading.
SIGNATURE_CAPACITY = 4096

#: Modelled wire size of a signature transfer (a Bloom filter register).
SIGNATURE_PAYLOAD_BYTES = 32


@register_protocol(
    name="DeNovoSyncSig",
    label="DSsig",
    paper="DeNovoND-style signatures (future work, §7)",
    summary=(
        "DeNovoSync carrying write signatures with lock transfers so "
        "acquires invalidate only signature hits, not whole regions."
    ),
    tracking="registry",
    invalidation="self",
    backoff="adaptive",
    requires_annotations=True,
)
class DeNovoSyncSigProtocol(DeNovoSyncProtocol):
    name = "DeNovoSyncSig"

    def __init__(self, config, allocator=None):
        super().__init__(config, allocator)
        n = config.num_cores
        #: Per-core write signature since the last release (None = overflow).
        self._core_sigs: list[set[int] | None] = [set() for _ in range(n)]
        #: What each core's last release attached (for release waves).
        self._last_released: list[set[int] | None] = [set() for _ in range(n)]
        #: Global release epoch counter.
        self._epoch = 0
        #: Sync variable -> deque of (epoch, words) release-log entries.
        self._var_log: dict[int, deque] = {}
        #: Sync variable -> epoch up to which log entries were discarded;
        #: an acquirer that last synchronized at or before this epoch has
        #: lost precision and must flush.
        self._var_pruned: dict[int, int] = {}
        #: (core, variable) -> epoch of this core's previous acquire.
        self._acq_epoch: dict[tuple[int, int], int] = {}

    # -- write tracking -------------------------------------------------------

    def store(
        self,
        core_id: int,
        addr: int,
        value: int,
        sync: bool = False,
        release: bool = False,
    ) -> tuple:
        access = super().store(core_id, addr, value, sync, release)
        if not sync:
            self._record_write(core_id, addr)
        return access

    def _record_write(self, core_id: int, addr: int) -> None:
        sig = self._core_sigs[core_id]
        if sig is None:
            return
        sig.add(addr)
        if len(sig) > SIGNATURE_CAPACITY:
            self._core_sigs[core_id] = None
            self.counters.bump("signature_overflows")

    # -- release: append to the variable's log -----------------------------------

    def on_release(self, core_id: int, addr: int) -> None:
        super().on_release(core_id, addr)
        self.counters.bump("signature_releases")
        core_sig = self._core_sigs[core_id]
        if core_sig is not None and not core_sig:
            # Nothing written since the previous release: part of the same
            # logical release wave; re-attach the previous signature.
            core_sig = self._last_released[core_id]
        self._epoch += 1
        log = self._var_log.setdefault(addr, deque())
        if core_sig is None:
            # Overflowed signature: future acquirers must flush.
            log.clear()
            self._var_pruned[addr] = self._epoch
        else:
            log.append((self._epoch, frozenset(core_sig)))
            self._prune(addr, log)
        self._last_released[core_id] = core_sig
        self._core_sigs[core_id] = set()

    def _prune(self, addr: int, log: deque) -> None:
        """Bound the log's total word count; dropped history costs the
        stragglers a flush, not correctness."""
        total = sum(len(words) for _, words in log)
        while total > SIGNATURE_CAPACITY and log:
            epoch, words = log.popleft()
            total -= len(words)
            self._var_pruned[addr] = epoch
            self.counters.bump("signature_log_prunes")

    # -- acquire: deliver the delta ---------------------------------------------------

    def on_acquire(self, core_id: int, addr: int) -> None:
        if addr not in self._var_log and addr not in self._var_pruned:
            return  # nothing ever released through this variable
        self.counters.bump("signature_acquires")
        bank = self.amap.home_bank_of_addr(addr)
        self.record_data(SYNCH, bank, core_id, SIGNATURE_PAYLOAD_BYTES)

        last_seen = self._acq_epoch.get((core_id, addr), 0)
        self._acq_epoch[(core_id, addr)] = self._epoch
        l1 = self.l1s[core_id]

        if last_seen < self._var_pruned.get(addr, 0):
            # History this core needed was discarded: flush everything.
            dropped = l1.self_invalidate_all()
            self.counters.bump("signature_flushes")
            self.counters.bump("self_invalidated_words", dropped)
            self._core_sigs[core_id] = None  # must propagate conservatism
            return

        delta: set[int] = set()
        for epoch, words in self._var_log.get(addr, ()):
            if epoch > last_seen:
                delta.update(words)
        dropped = 0
        for word in delta:
            if l1.state_of(word, touch=False) is VALID:
                l1.invalidate_word(word)
                dropped += 1
        self.counters.bump("self_invalidated_words", dropped)
        # Happens-before transitivity: what I acquired, my next release
        # must propagate.
        core_sig = self._core_sigs[core_id]
        if core_sig is not None:
            core_sig.update(delta)
            if len(core_sig) > SIGNATURE_CAPACITY:
                self._core_sigs[core_id] = None
                self.counters.bump("signature_overflows")

    # -- static regions are obsolete here ------------------------------------------------

    def self_invalidate(
        self, core_id: int, regions: list[Region], flush_all: bool = False
    ) -> int:
        """Region-based self-invalidation instructions retire as no-ops:
        the signatures carry strictly more precise information.  The
        explicit flush-all fallback still works."""
        if flush_all:
            return super().self_invalidate(core_id, regions, flush_all=True)
        return self.config.tuning.self_invalidate_latency

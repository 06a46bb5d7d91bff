"""Dynamic-mode sanitizer: happens-before race detection and
self-invalidation completeness over access traces.

Both checks run in one pass over a time-ordered list of
:class:`~repro.trace.events.AccessRecord`:

**Race detection** maintains DJIT+-style vector clocks.  The only
happens-before edges besides program order are the ones DeNovo's DRF
contract recognises:

* a ``release`` store to a sync variable publishes the writer's clock
  on that variable;
* a sync RMW passes the variable's release clock through unchanged (the
  RMW-chain rule — an acquire that reads a chain of CASes synchronizes
  with the release that started the chain), and a ``release`` RMW joins
  its own clock into the chain;
* an ``acquire`` load/RMW of the variable joins the published clock
  into the reader's;
* a non-release store (plain or sync) breaks the variable's chain.

Two accesses to the same word from different cores, at least one a
write, at least one unannotated (``sync=False``), with neither
HB-ordered before the other, are an ``unannotated-race`` finding: the
DRF contract demands every racy access be marked synchronization.

**Self-invalidation completeness** keeps a word-granularity shadow
cache per core: every access caches the word's current version; a
``selfinv`` record drops the cached words of the named regions
(``flush_all`` drops everything).  A *data* read that observes a word
last written by another core, where the write is HB-ordered before the
read (so the program did synchronize) but the reader still holds a
stale cached version, is a ``stale-read-hazard``: the acquire's
``SelfInvalidate`` regions did not cover the word, so DeNovo would
return the stale copy — a bug MESI's writer-initiated invalidations
mask.  The shadow model ignores capacity evictions (an eviction can
hide a hazard for one run, not fix the annotation) and is word-granular
like DeNovo's valid-state tracking.  Registered words surviving a real
self-invalidation refetch cleanly afterwards, so dropping them here
cannot create false hazards.

The model is deliberately conservative towards false positives: an
unordered pair is only reported when unannotated, and a stale read only
when the write is provably HB-ordered (an unordered stale read is the
race finding instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.sanitize.findings import (
    KIND_STALE_READ_HAZARD,
    KIND_UNANNOTATED_RACE,
    SEVERITY_ERROR,
    Finding,
)
from repro.trace.events import AccessRecord

#: Cap on findings *emitted* per kind; counting continues past the cap.
MAX_FINDINGS_PER_KIND = 25


@dataclass(frozen=True)
class _Epoch:
    """One access's position: (core, that core's clock at issue)."""

    core: int
    tick: int
    cycle: int
    kind: str
    sync: bool


@dataclass
class TraceAnalysis:
    """Everything the dynamic pass learned from one trace."""

    findings: list[Finding] = field(default_factory=list)
    #: Distinct (addr, core-pair, kind-pair) races, uncapped.
    racy_unannotated_pairs: int = 0
    #: Distinct (core, addr) stale-read hazards, uncapped.
    stale_read_hazards: int = 0
    records_analyzed: int = 0


def region_lookup(allocator) -> Callable[[int], int | None]:
    """Build an addr -> region-id mapping from a RegionAllocator."""

    def lookup(addr: int) -> int | None:
        region = allocator.region_of(addr)
        return None if region is None else region.region_id

    return lookup


def _ordered(epoch: _Epoch, clock: dict[int, int]) -> bool:
    """True when ``epoch`` happens-before the holder of ``clock``."""
    return epoch.tick <= clock.get(epoch.core, -1)


def analyze_trace(
    records: Iterable[AccessRecord],
    *,
    region_of: Callable[[int], int | None] | None = None,
) -> TraceAnalysis:
    """Run both dynamic checks over ``records``.

    ``region_of`` maps a word address to its region id (see
    :func:`region_lookup`); without it the self-invalidation
    completeness check is skipped (race detection needs no region
    information).
    """
    analysis = TraceAnalysis()

    # Vector clocks: clocks[c][d] = latest tick of core d ordered before
    # core c's next access.  clocks[c][c] is c's own tick counter.
    clocks: dict[int, dict[int, int]] = {}
    # Release clocks per sync variable (the publication the next acquire
    # joins); absent key = broken/never-started chain.
    released: dict[int, dict[int, int]] = {}

    # Conflict frontiers per word: concurrent (not yet HB-dominated)
    # writes and reads.
    write_frontier: dict[int, list[_Epoch]] = {}
    read_frontier: dict[int, list[_Epoch]] = {}
    seen_races: set = set()

    # Shadow caches: version[addr] counts writes; writer[addr] is the
    # last write's epoch; cached[c][addr] is the version core c holds.
    version: dict[int, int] = {}
    writer: dict[int, _Epoch] = {}
    cached: dict[int, dict[int, int]] = {}
    seen_hazards: set = set()

    def clock_of(core: int) -> dict[int, int]:
        clock = clocks.get(core)
        if clock is None:
            clock = clocks[core] = {core: 0}
        return clock

    def emit(kind: str, count: int, finding: Finding) -> None:
        if count <= MAX_FINDINGS_PER_KIND:
            analysis.findings.append(finding)

    for record in records:
        analysis.records_analyzed += 1
        core = record.core
        clock = clock_of(core)

        if record.kind == "selfinv":
            if region_of is not None:
                slots = cached.get(core)
                if slots:
                    if record.flush_all:
                        slots.clear()
                    else:
                        covered = set(record.regions)
                        if not covered and record.addr >= 0:
                            covered = {record.addr}  # v2 trace: first id only
                        for addr in [
                            a for a in slots if region_of(a) in covered
                        ]:
                            del slots[addr]
            continue

        # -- acquire edge ----------------------------------------------------
        if record.acquire:
            publication = released.get(record.addr)
            if publication:
                for other, tick in publication.items():
                    if clock.get(other, -1) < tick:
                        clock[other] = tick

        tick = clock.setdefault(core, 0)
        epoch = _Epoch(
            core=core, tick=tick, cycle=record.cycle,
            kind=record.kind, sync=record.sync,
        )
        is_write = record.kind in ("store", "rmw")

        # -- race check --------------------------------------------------------
        against = list(write_frontier.get(record.addr, ()))
        if is_write:
            against += read_frontier.get(record.addr, ())
        for other in against:
            if other.core == core or _ordered(other, clock):
                continue
            if other.sync and record.sync:
                continue  # both annotated: a legal (intentional) race
            first, second = sorted(
                (other, epoch), key=lambda e: (e.cycle, e.core)
            )
            key = (record.addr, first.core, second.core, first.kind, second.kind)
            if key in seen_races:
                continue
            seen_races.add(key)
            analysis.racy_unannotated_pairs += 1
            emit(
                KIND_UNANNOTATED_RACE,
                analysis.racy_unannotated_pairs,
                Finding(
                    kind=KIND_UNANNOTATED_RACE,
                    severity=SEVERITY_ERROR,
                    message=(
                        f"unordered conflicting accesses to word {record.addr}: "
                        f"core {first.core} {first.kind}"
                        f"{' (sync)' if first.sync else ''} @cycle {first.cycle} "
                        f"vs core {second.core} {second.kind}"
                        f"{' (sync)' if second.sync else ''} @cycle {second.cycle}; "
                        "at least one side is unannotated (sync=False)"
                    ),
                    site=f"word {record.addr}",
                    details={
                        "addr": record.addr,
                        "first": {
                            "core": first.core, "cycle": first.cycle,
                            "kind": first.kind, "sync": first.sync,
                        },
                        "second": {
                            "core": second.core, "cycle": second.cycle,
                            "kind": second.kind, "sync": second.sync,
                        },
                    },
                ),
            )

        # -- staleness check ---------------------------------------------------
        if region_of is not None:
            slots = cached.setdefault(core, {})
            if is_write:
                version[record.addr] = version.get(record.addr, 0) + 1
                writer[record.addr] = epoch
                slots[record.addr] = version[record.addr]
            else:
                current = version.get(record.addr, 0)
                last = writer.get(record.addr)
                held = slots.get(record.addr)
                if (
                    not record.sync
                    and last is not None
                    and last.core != core
                    and held is not None
                    and held < current
                    and _ordered(last, clock)
                ):
                    key = (core, record.addr)
                    if key not in seen_hazards:
                        seen_hazards.add(key)
                        analysis.stale_read_hazards += 1
                        region = region_of(record.addr)
                        emit(
                            KIND_STALE_READ_HAZARD,
                            analysis.stale_read_hazards,
                            Finding(
                                kind=KIND_STALE_READ_HAZARD,
                                severity=SEVERITY_ERROR,
                                message=(
                                    f"core {core} reads word {record.addr} "
                                    f"(region {region}) @cycle {record.cycle} "
                                    f"holding a stale copy: core {last.core} "
                                    f"wrote it @cycle {last.cycle} and the "
                                    "write is HB-ordered before the read, but "
                                    "no intervening SelfInvalidate covered "
                                    "the word's region — DeNovo would return "
                                    "the stale value"
                                ),
                                site=f"word {record.addr}",
                                details={
                                    "addr": record.addr,
                                    "region": region,
                                    "reader_core": core,
                                    "read_cycle": record.cycle,
                                    "writer_core": last.core,
                                    "write_cycle": last.cycle,
                                },
                            ),
                        )
                # Reads cache (or refresh to) the current version: sync
                # reads register and are always fresh; a flagged stale
                # data read is refreshed to avoid duplicate findings.
                slots[record.addr] = current

        # -- frontier update ---------------------------------------------------
        frontier = write_frontier if is_write else read_frontier
        entries = frontier.setdefault(record.addr, [])
        entries[:] = [e for e in entries if not _ordered(e, clock)]
        entries.append(epoch)

        # -- release / chain edges --------------------------------------------
        if record.kind == "store":
            if record.sync and record.release:
                released[record.addr] = dict(clock)
            else:
                # Any non-release store breaks the variable's chain.
                released.pop(record.addr, None)
        elif record.kind == "rmw":
            if record.release:
                publication = released.setdefault(record.addr, {})
                for other, t in clock.items():
                    if publication.get(other, -1) < t:
                        publication[other] = t
            # Non-release RMWs pass the chain through untouched.

        clock[core] = tick + 1

    return analysis

"""Trace analysis: the summaries a coherence architect looks at first."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.trace.events import AccessRecord


@dataclass
class TraceSummary:
    """Aggregate statistics over one access trace."""

    accesses: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    sync_accesses: int = 0
    avg_latency: float = 0.0
    avg_miss_latency: float = 0.0
    hot_words: list[tuple[int, int]] = field(default_factory=list)
    max_sharing_degree: int = 0
    read_shared_words: int = 0
    racy_unannotated_pairs: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def summarize(records: list[AccessRecord]) -> TraceSummary:
    """Compute a :class:`TraceSummary` over ``records``.

    ``hot_words`` are the 10 most-accessed addresses (with counts);
    ``max_sharing_degree`` is the largest number of distinct cores that
    touched any one word; ``read_shared_words`` counts words read by more
    than one core — the population DeNovoSync's read registration
    serializes.  ``racy_unannotated_pairs`` is the number of conflicting
    access pairs with no happens-before order where at least one side is
    unannotated (``sync=False``) — the DRF-contract violations the
    sanitizer's dynamic mode reports (see :mod:`repro.sanitize.dynamic`).
    """
    summary = TraceSummary()
    by_kind: Counter[str] = Counter()
    per_word: Counter[int] = Counter()
    sharers: dict[int, set[int]] = defaultdict(set)
    readers: dict[int, set[int]] = defaultdict(set)
    latency_total = 0
    miss_latency_total = 0

    memory_records = [r for r in records if r.kind in ("load", "store", "rmw")]
    for record in memory_records:
        by_kind[record.kind] += 1
        per_word[record.addr] += 1
        sharers[record.addr].add(record.core)
        if record.kind == "load":
            readers[record.addr].add(record.core)
        if record.sync:
            summary.sync_accesses += 1
        if record.hit:
            summary.hits += 1
        else:
            summary.misses += 1
            miss_latency_total += record.latency
        latency_total += record.latency

    summary.accesses = len(memory_records)
    summary.by_kind = dict(by_kind)
    summary.avg_latency = latency_total / summary.accesses if summary.accesses else 0.0
    summary.avg_miss_latency = (
        miss_latency_total / summary.misses if summary.misses else 0.0
    )
    summary.hot_words = per_word.most_common(10)
    summary.max_sharing_degree = max(
        (len(cores) for cores in sharers.values()), default=0
    )
    summary.read_shared_words = sum(
        1 for cores in readers.values() if len(cores) > 1
    )
    from repro.sanitize.dynamic import analyze_trace

    summary.racy_unannotated_pairs = analyze_trace(records).racy_unannotated_pairs
    return summary


def interleaving_histogram(records: list[AccessRecord], addr: int) -> dict[int, int]:
    """Per-core access counts to one address (who hammers the hot word)."""
    counts: Counter[int] = Counter()
    for record in records:
        if record.addr == addr and record.kind in ("load", "store", "rmw"):
            counts[record.core] += 1
    return dict(counts)

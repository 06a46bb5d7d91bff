"""Protocol event counters and the per-run result record."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from repro.noc.traffic import TrafficLedger
from repro.stats.timeparts import TimeBreakdown, TimeComponent


class ProtocolCounters:
    """Free-form named event counters (misses, invalidations, steals...).

    Keys used by the protocols:

    * ``l1_hits`` / ``l1_misses`` — all accesses
    * ``sync_read_misses`` / ``sync_read_hits`` — DeNovo sync reads
    * ``invalidations_sent`` — MESI writer-initiated invalidations
    * ``registration_transfers`` — DeNovo ownership moves
    * ``read_registration_steals`` — DeNovo sync reads revoking a remote
      registration (the paper's false R-R/W-R races)
    * ``hw_backoff_events`` — DeNovoSync stalls taken
    * ``cold_misses`` — first-touch memory fetches
    """

    def __init__(self) -> None:
        # Not a ``Counter``: it defines ``__delitem__`` in Python, so
        # CPython sends every subscript store through a generic slot
        # wrapper and a ``+= 1`` costs about 2.5x a dict's, while the
        # protocols bump entries hundreds of thousands of times per run.
        # ``bump(key, 0)`` still inserts ``key``; ``get`` never does, so a
        # read cannot change the key set ``as_dict`` (and every result
        # digest) reports.
        self._counts: defaultdict[str, int] = defaultdict(int)

    def bump(self, key: str, by: int = 1) -> None:
        self._counts[key] += by

    def get(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)


@dataclass
class RunResult:
    """Everything measured in one (workload, protocol, system) run."""

    workload: str
    protocol: str
    num_cores: int
    cycles: int
    per_core_time: list[TimeBreakdown]
    traffic: TrafficLedger
    counters: ProtocolCounters
    meta: dict = field(default_factory=dict)

    @property
    def avg_time_breakdown(self) -> dict[str, float]:
        return TimeBreakdown.average(self.per_core_time)

    @property
    def total_traffic(self) -> int:
        return self.traffic.flit_crossings()

    def traffic_breakdown(self) -> dict[str, int]:
        return self.traffic.breakdown()

    def component_cycles(self, component: TimeComponent) -> float:
        """Mean cycles spent in ``component`` across cores."""
        if not self.per_core_time:
            return 0.0
        return sum(b.get(component) for b in self.per_core_time) / len(
            self.per_core_time
        )

    #: meta keys that hold live simulation objects (attached by the
    #: ``keep_protocol`` / ``trace`` / ``fault_plan`` runner options) and
    #: must not cross a process boundary or enter the on-disk result cache.
    NON_PORTABLE_META = ("protocol", "trace", "fault_injector")

    def portable_copy(self) -> "RunResult":
        """A copy safe to pickle: all measurements, no live objects.

        Everything except the :data:`NON_PORTABLE_META` entries round-trips
        through pickle unchanged, which is what the parallel sweep executor
        and the result cache rely on.
        """
        meta = {k: v for k, v in self.meta.items() if k not in self.NON_PORTABLE_META}
        return replace(self, meta=meta)

    def summary(self) -> dict:
        return {
            "workload": self.workload,
            "protocol": self.protocol,
            "num_cores": self.num_cores,
            "cycles": self.cycles,
            "time_breakdown": self.avg_time_breakdown,
            "traffic": self.traffic_breakdown(),
            "total_traffic": self.total_traffic,
        }


def normalize_to(results: list[RunResult], baseline: RunResult) -> list[dict]:
    """Normalize cycles and traffic to ``baseline`` (the figures' 100% bar)."""
    out = []
    base_cycles = max(1, baseline.cycles)
    base_traffic = max(1, baseline.total_traffic)
    for result in results:
        out.append(
            {
                "workload": result.workload,
                "protocol": result.protocol,
                "rel_time": result.cycles / base_cycles,
                "rel_traffic": result.total_traffic / base_traffic,
            }
        )
    return out

"""Text reports shaped like the paper's figures.

The paper's kernel figures are stacked bars normalized to MESI: parts
(a)/(c) decompose execution time into non-synch / compute / memory stall /
sw backoff / hw backoff / barrier components; parts (b)/(d) decompose
network traffic by message class.  These functions print the same data as
aligned text tables, one row per (kernel, protocol) bar.
"""

from __future__ import annotations

from typing import TextIO

import sys

from repro.harness.experiments import FigureResult
from repro.protocols import get_info
from repro.stats.timeparts import TimeComponent

TIME_COMPONENTS = [c.value for c in TimeComponent]
TRAFFIC_CLASSES = ["LD", "ST", "SYNCH", "WB", "Inv"]


def _fmt(value: float) -> str:
    return f"{value:5.2f}"


def print_figure(result: FigureResult, out: TextIO = sys.stdout) -> None:
    """Print one figure's execution-time and traffic tables."""
    print(f"== {result.figure} (scale={result.scale}) ==", file=out)
    print_time_table(result, out)
    print(file=out)
    print_traffic_table(result, out)
    print(file=out)


def print_time_table(result: FigureResult, out: TextIO = sys.stdout) -> None:
    """Execution time normalized to MESI, with component decomposition.

    Components are expressed as fractions of the MESI total so the rows
    stack exactly like the paper's bars.
    """
    header = (
        f"{'workload':16s} {'cores':>5s} {'proto':>5s} {'time':>6s}  "
        + " ".join(f"{c:>12s}" for c in TIME_COMPONENTS)
    )
    print(header, file=out)
    for row in result.rows:
        base = row.results.get("MESI")
        base_total = max(1.0, sum(base.avg_time_breakdown.values())) if base else 1.0
        for protocol, res in row.results.items():
            label = get_info(protocol).label
            rel_time = row.rel_time(protocol) if base else float("nan")
            parts = res.avg_time_breakdown
            cells = " ".join(f"{parts[c] / base_total:12.3f}" for c in TIME_COMPONENTS)
            print(
                f"{row.workload:16s} {row.num_cores:5d} {label:>5s} "
                f"{_fmt(rel_time)}  {cells}",
                file=out,
            )


def print_traffic_table(result: FigureResult, out: TextIO = sys.stdout) -> None:
    """Network traffic (flit crossings) normalized to MESI, by class."""
    header = (
        f"{'workload':16s} {'cores':>5s} {'proto':>5s} {'traffic':>7s}  "
        + " ".join(f"{c:>8s}" for c in TRAFFIC_CLASSES)
    )
    print(header, file=out)
    for row in result.rows:
        base = row.results.get("MESI")
        base_total = max(1, base.total_traffic) if base else 1
        for protocol, res in row.results.items():
            label = get_info(protocol).label
            rel = row.rel_traffic(protocol) if base else float("nan")
            breakdown = res.traffic_breakdown()
            cells = " ".join(
                f"{breakdown.get(c, 0) / base_total:8.3f}" for c in TRAFFIC_CLASSES
            )
            print(
                f"{row.workload:16s} {row.num_cores:5d} {label:>5s} "
                f"{rel:7.2f}  {cells}",
                file=out,
            )


def figure_summary(result: FigureResult) -> dict[str, dict[str, float]]:
    """Geometric-mean-free summary: average rel time/traffic per protocol."""
    protocols: dict[str, dict[str, list[float]]] = {}
    for row in result.rows:
        if "MESI" not in row.results:
            continue
        for protocol in row.results:
            bucket = protocols.setdefault(protocol, {"time": [], "traffic": []})
            bucket["time"].append(row.rel_time(protocol))
            bucket["traffic"].append(row.rel_traffic(protocol))
    return {
        protocol: {
            "avg_rel_time": sum(v["time"]) / len(v["time"]),
            "avg_rel_traffic": sum(v["traffic"]) / len(v["traffic"]),
        }
        for protocol, v in protocols.items()
        if v["time"]
    }

"""ASCII renderings of the paper's figures.

The evaluation figures are stacked bars normalized to MESI; this module
renders the same data as horizontal text bars so a terminal run of the
harness looks like the paper.  No plotting dependency needed.
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.harness.experiments import FigureResult
from repro.protocols import get_info
from repro.stats.timeparts import TimeComponent

#: One glyph per time component, in stacking order (matches the legend).
COMPONENT_GLYPHS = [
    (TimeComponent.NON_SYNCH, "."),
    (TimeComponent.COMPUTE, "c"),
    (TimeComponent.MEMORY_STALL, "M"),
    (TimeComponent.SW_BACKOFF, "s"),
    (TimeComponent.HW_BACKOFF, "h"),
    (TimeComponent.BARRIER_STALL, "b"),
]

TRAFFIC_GLYPHS = [("LD", "L"), ("ST", "S"), ("SYNCH", "Y"), ("WB", "W"), ("Inv", "I")]


def _bar(fractions: list[tuple[str, float]], width: int) -> str:
    """Render a stacked bar: each (glyph, fraction-of-MESI) segment."""
    cells: list[str] = []
    carry = 0.0
    for glyph, fraction in fractions:
        exact = fraction * width + carry
        count = int(round(exact))
        carry = exact - count
        cells.append(glyph * max(0, count))
    return "".join(cells)


def render_time_bars(
    result: FigureResult, out: TextIO = sys.stdout, width: int = 50
) -> None:
    """Stacked execution-time bars, normalized so MESI spans ``width``."""
    legend = " ".join(f"{g}={c.value}" for c, g in COMPONENT_GLYPHS)
    print(f"-- execution time ({legend}) --", file=out)
    for row in result.rows:
        base = row.results.get("MESI")
        if base is None:
            continue
        base_total = max(1.0, sum(base.avg_time_breakdown.values()))
        for protocol, run in row.results.items():
            label = get_info(protocol).label
            parts = run.avg_time_breakdown
            fractions = [
                (glyph, parts[component.value] / base_total)
                for component, glyph in COMPONENT_GLYPHS
            ]
            bar = _bar(fractions, width)
            print(
                f"{row.workload:>14s}/{row.num_cores:<3d}{label:>4s} |{bar}",
                file=out,
            )


def render_traffic_bars(
    result: FigureResult, out: TextIO = sys.stdout, width: int = 50
) -> None:
    """Stacked traffic bars by message class, MESI = full width."""
    legend = " ".join(f"{g}={name}" for name, g in TRAFFIC_GLYPHS)
    print(f"-- network traffic ({legend}) --", file=out)
    for row in result.rows:
        base = row.results.get("MESI")
        if base is None:
            continue
        base_total = max(1, base.total_traffic)
        for protocol, run in row.results.items():
            label = get_info(protocol).label
            breakdown = run.traffic_breakdown()
            fractions = [
                (glyph, breakdown.get(name, 0) / base_total)
                for name, glyph in TRAFFIC_GLYPHS
            ]
            bar = _bar(fractions, width)
            print(
                f"{row.workload:>14s}/{row.num_cores:<3d}{label:>4s} |{bar}",
                file=out,
            )


def render_figure(result: FigureResult, out: TextIO = sys.stdout, width: int = 50) -> None:
    print(f"== {result.figure} (scale={result.scale}) ==", file=out)
    render_time_bars(result, out, width)
    print(file=out)
    render_traffic_bars(result, out, width)

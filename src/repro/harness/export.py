"""Export run results and figures to CSV / JSON for external analysis."""

from __future__ import annotations

import csv
import json
from typing import TextIO

from repro.harness.experiments import FigureResult
from repro.stats.collector import RunResult
from repro.stats.timeparts import TimeComponent

TIME_FIELDS = [c.value for c in TimeComponent]
TRAFFIC_FIELDS = ["LD", "ST", "SYNCH", "WB", "Inv"]


def result_to_dict(result: RunResult) -> dict:
    """Flatten one run into a JSON-friendly dict."""
    row = {
        "workload": result.workload,
        "protocol": result.protocol,
        "num_cores": result.num_cores,
        "cycles": result.cycles,
        "total_traffic": result.total_traffic,
    }
    for name, value in result.avg_time_breakdown.items():
        row[f"time.{name}"] = value
    for name, value in result.traffic_breakdown().items():
        row[f"traffic.{name}"] = value
    for name, value in sorted(result.counters.as_dict().items()):
        row[f"counter.{name}"] = value
    return row


def figure_to_rows(result: FigureResult) -> list[dict]:
    """Flatten a figure into per-(workload, protocol) rows with relative
    metrics against the MESI baseline."""
    rows = []
    for fig_row in result.rows:
        base = fig_row.results.get("MESI")
        for protocol, run in fig_row.results.items():
            row = result_to_dict(run)
            row["figure"] = result.figure
            row["scale"] = result.scale
            if base is not None:
                row["rel_time"] = fig_row.rel_time(protocol)
                row["rel_traffic"] = fig_row.rel_traffic(protocol)
            rows.append(row)
    return rows


def _rows(figures: FigureResult | list[FigureResult]) -> list[dict]:
    if isinstance(figures, FigureResult):
        figures = [figures]
    return [row for figure in figures for row in figure_to_rows(figure)]


def write_figure_csv(figures: FigureResult | list[FigureResult], out: TextIO) -> int:
    """Write one figure, or several as one document under one header (the
    ``figure`` column names each row's variant); returns the number of
    data rows."""
    rows = _rows(figures)
    if not rows:
        return 0
    fields = sorted({key for row in rows for key in row})
    # Lead with the identity columns.
    lead = ["figure", "workload", "protocol", "num_cores", "rel_time", "rel_traffic"]
    fields = [f for f in lead if f in fields] + [f for f in fields if f not in lead]
    writer = csv.DictWriter(out, fieldnames=fields, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return len(rows)


def write_figure_json(figures: FigureResult | list[FigureResult], out: TextIO) -> int:
    """Write one figure, or several, as one JSON array; returns the number
    of rows."""
    rows = _rows(figures)
    json.dump(rows, out, indent=2)
    out.write("\n")
    return len(rows)

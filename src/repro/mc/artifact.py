"""Replayable counterexample artifacts.

A counterexample is exported as two files:

* ``<name>.json`` — the schedule (choice labels), the violation, and
  enough metadata to rebuild the cell (litmus name, protocol, bound);
* ``<name>.trace.jsonl`` — the access trace of the violating execution
  in the versioned :mod:`repro.trace.events` format.

:func:`replay_counterexample` rebuilds the cell from the JSON alone,
re-runs the schedule (tolerantly, so artifacts survive small simulator
changes), and verifies both that a violation of the recorded kind
recurs and that the access trace matches the recorded one record for
record — the determinism proof the CLI prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.mc.litmus import CORPUS
from repro.mc.runner import Choice, Execution, Violation, run_schedule
from repro.trace.events import read_trace, write_trace

ARTIFACT_VERSION = 1


def export_counterexample(
    out_dir,
    *,
    test_name: str,
    protocol_name: str,
    bound: int | None,
    schedule: list[Choice],
    violation: Violation,
    execution: Execution,
) -> Path:
    """Write the artifact pair; returns the path of the JSON file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{test_name.replace('+', '_')}-{protocol_name}-cex"
    trace_path = out_dir / f"{stem}.trace.jsonl"
    write_trace(execution.trace, trace_path)
    payload = {
        "mc_artifact_version": ARTIFACT_VERSION,
        "test": test_name,
        "protocol": protocol_name,
        "bound": bound,
        "schedule": [list(choice) for choice in schedule],
        "violation": {"kind": violation.kind, "message": violation.message},
        "dump": violation.dump,
        "steps": len(execution.steps),
        "trace_file": trace_path.name,
    }
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    return json_path


def load_counterexample(path) -> dict:
    """Load an artifact JSON; schedule entries come back as tuples."""
    path = Path(path)
    payload = json.loads(path.read_text())
    version = payload.get("mc_artifact_version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"unsupported mc artifact version: {version!r}")
    payload["schedule"] = [tuple(choice) for choice in payload["schedule"]]
    payload["_path"] = path
    return payload


@dataclass
class ReplayReport:
    """Outcome of replaying a counterexample artifact."""

    reproduced: bool  # a violation of the recorded kind recurred
    trace_identical: bool  # access trace matches the artifact's
    violation: Violation | None
    execution: Execution

    def describe(self) -> str:
        if self.reproduced and self.trace_identical:
            return "reproduced deterministically (violation + identical trace)"
        if self.reproduced:
            return "violation reproduced but the trace diverged"
        return "FAILED to reproduce the recorded violation"


def replay_counterexample(path) -> tuple[dict, ReplayReport]:
    """Replay the artifact at ``path``; returns (payload, report)."""
    payload = load_counterexample(path)
    test = CORPUS[payload["test"]]
    execution = run_schedule(
        test,
        payload["protocol"],
        forced=payload["schedule"],
        tolerant=True,
    )
    kind = payload["violation"]["kind"]
    violation = next(
        (v for v in execution.violations if v.kind == kind), None
    )
    recorded = read_trace(payload["_path"].parent / payload["trace_file"])
    report = ReplayReport(
        reproduced=violation is not None,
        trace_identical=execution.trace == recorded,
        violation=violation,
        execution=execution,
    )
    return payload, report

"""Finding and report value objects shared by both sanitizer modes.

A :class:`Finding` is one violation of the DRF contract or of a
simulator idiom; the dynamic analyzer and the AST lint pass both emit
them, and :class:`Report` aggregates findings across analysis cells into
the one JSON document the ``sanitize`` CLI target writes.

Severities: ``error`` findings fail the sanitize run (contract
violations, definite idiom bugs); ``warning`` findings are reported but
do not gate (style-level advice such as a discarded ``WaitLoad`` result
whose predicate does not pin the value).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Dynamic-mode finding kinds.
KIND_UNANNOTATED_RACE = "unannotated-race"
KIND_STALE_READ_HAZARD = "stale-read-hazard"

#: Static-mode (lint) finding kinds.
KIND_DISCARDED_RESULT = "discarded-result"
KIND_CAS_UNCHECKED = "cas-success-unchecked"
KIND_WAITLOAD_NOT_SYNC = "waitload-not-sync"
KIND_UNBALANCED_BUCKETS = "unbalanced-buckets"
KIND_RELEASE_ON_DATA_STORE = "release-on-data-store"
KIND_RAW_ADDRESS = "raw-address"
KIND_UNORDERED_ITERATION = "unordered-iteration"

#: Formal-mode finding kinds (repro.formal.* checkers; same report shape).
KIND_MISSING_HANDLER = "missing-handler"
KIND_UNHANDLED_TRANSITION = "unhandled-transition"
KIND_FORBIDDEN_TRANSITION = "forbidden-transition"
KIND_DEAD_STATE = "dead-state"
KIND_MODEL_INVARIANT = "model-invariant-violation"
KIND_MODEL_DIVERGENCE = "model-divergence"


@dataclass(frozen=True)
class Finding:
    """One sanitizer finding.

    ``kind`` is one of the ``KIND_*`` constants; ``site`` locates the
    finding — ``file:line`` for lint findings, a human-readable access
    pair for dynamic ones — and ``details`` carries the kind-specific
    structured fields (cores, cycles, addresses, region ids, ...).
    """

    kind: str
    severity: str
    message: str
    site: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Finding":
        return Finding(
            kind=data["kind"],
            severity=data["severity"],
            message=data["message"],
            site=data.get("site", ""),
            details=dict(data.get("details", {})),
        )


@dataclass
class Report:
    """All findings of one sanitize run, JSON-serializable.

    ``cells`` names the dynamic sweep cells that were analyzed (with
    per-cell finding counts) so a clean report still shows coverage.
    """

    findings: list[Finding] = field(default_factory=list)
    cells: list[dict] = field(default_factory=list)
    lint_files: list[str] = field(default_factory=list)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def clean(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.kind] = counts.get(finding.kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {
                "format": 1,
                "clean": self.clean,
                "counts": self.counts_by_kind(),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "cells": self.cells,
                "lint_files": self.lint_files,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=indent,
        )

    @staticmethod
    def from_json(text: str) -> "Report":
        data = json.loads(text)
        report = Report(
            findings=[Finding.from_dict(f) for f in data.get("findings", [])],
            cells=list(data.get("cells", [])),
            lint_files=list(data.get("lint_files", [])),
        )
        return report

"""Helpers shared by the extension benchmarks."""

from __future__ import annotations

import os


def bench_scale() -> float:
    """Fraction of the paper's kernel iteration counts (REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))

"""Shared fixtures for the extension benchmarks.

The paper's figures and ablations are written by the CLI
(``make figures``); the benches here measure extension studies, and the
three that produce tables (lock design, RFO, signatures) write them under
``results/ext_*.txt``.  ``REPRO_BENCH_SCALE`` (default 0.05) sets the
fraction of the paper's kernel iteration counts.
"""

from __future__ import annotations

import io
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture
def figure_reporter():
    """Returns a function that prints a FigureResult and writes it to
    ``results/<name>.txt``, replacing any earlier table of that name (so
    rerunning a bench never duplicates it)."""
    from repro.harness.report import print_figure

    def report(name: str, result) -> None:
        buffer = io.StringIO()
        print_figure(result, buffer)
        text = buffer.getvalue()
        print()
        print(text)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
            fh.write(text)

    return report

"""Shared fixtures for the figure-reproduction benchmarks.

Every bench regenerates one of the paper's tables/figures, printing the
rows and writing them under ``results/``.  ``REPRO_BENCH_SCALE`` (default
0.05) sets the fraction of the paper's kernel iteration counts; the
figure *shapes* are stable across scales, and scale 1.0 reproduces the
paper's full methodology (slow in pure Python).
"""

from __future__ import annotations

import io
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture(scope="session")
def _reported_names() -> set[str]:
    """Figure names already written to ``results/`` in this session."""
    return set()


@pytest.fixture
def figure_reporter(_reported_names):
    """Returns a function that prints a FigureResult and saves it.

    The first report under a name in a session rewrites
    ``results/<name>.txt``; later ones in the same session append (one
    table per core count, say), so rerunning a bench never duplicates it.
    """
    from repro.harness.report import print_figure

    def report(name: str, result) -> None:
        buffer = io.StringIO()
        print_figure(result, buffer)
        text = buffer.getvalue()
        print()
        print(text)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        mode = "a" if name in _reported_names else "w"
        _reported_names.add(name)
        with open(path, mode) as fh:
            fh.write(text)

    return report

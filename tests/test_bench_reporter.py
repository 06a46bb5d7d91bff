"""The benchmarks' figure reporter: rerunning a bench rewrites its tables.

The reporter fixture lives in ``benchmarks/conftest.py``.  These tests copy
it next to a one-test bench that reports one figure, then run pytest on
that directory: a session must replace whatever table an earlier session
left, not append to it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

BENCH = '''
from repro.harness.experiments import FigureResult


def test_report(figure_reporter):
    figure_reporter("table", FigureResult("table", [], 0.1))
'''


def _bench_session(tmp_path):
    """Run the bench once; return the table it left."""
    bench = tmp_path / "bench"
    if not bench.exists():
        bench.mkdir()
        shutil.copy(REPO / "benchmarks" / "conftest.py", bench / "conftest.py")
        (bench / "test_table.py").write_text(BENCH)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(bench)],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    return (tmp_path / "results" / "table.txt").read_text()


def test_rerun_rewrites_instead_of_appending(tmp_path):
    texts = [_bench_session(tmp_path) for _ in range(2)]
    assert texts[0].count("== table") == 1
    assert texts[1] == texts[0]


def test_stale_table_is_replaced(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "table.txt").write_text("stale table from an older run\n")
    text = _bench_session(tmp_path)
    assert "stale" not in text
    assert text.count("== table") == 1

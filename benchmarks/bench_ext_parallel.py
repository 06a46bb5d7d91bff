"""Extension: parallel sweep executor vs the serial reference path.

Runs the Figure 3 TATAS sweep serially and with ``jobs=4`` and reports
the wall-clock speedup.  Determinism is always asserted — the parallel
figure must be byte-identical to the serial one — while the speedup
itself is only *reported*: it depends on host core count (a 4-core host
should see >=2x; a 1-core CI box sees ~1x plus process overhead), so
failing on it would make the bench flaky on small machines.

A second bench measures the warm-cache path: with every cell cached the
sweep does no simulation at all.
"""

from __future__ import annotations

import io
import time

from _bench_utils import bench_scale

from repro.harness.experiments import run_kernel_figure
from repro.harness.parallel import ResultCache
from repro.harness.report import print_figure


def _figure_text(figure) -> str:
    buffer = io.StringIO()
    print_figure(figure, buffer)
    return buffer.getvalue()


def _timed(**kwargs):
    start = time.perf_counter()
    figure = run_kernel_figure(
        "tatas", core_counts=(16,), scale=bench_scale(), **kwargs
    )
    return figure, time.perf_counter() - start


def test_bench_parallel_speedup(benchmark):
    serial, serial_s = _timed(jobs=1)

    def parallel_sweep():
        figure, elapsed = _timed(jobs=4)
        assert _figure_text(figure) == _figure_text(serial)
        return elapsed

    parallel_s = benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)
    print()
    print(
        f"serial {serial_s:.2f}s, jobs=4 {parallel_s:.2f}s "
        f"-> speedup {serial_s / max(parallel_s, 1e-9):.2f}x "
        f"(output byte-identical)"
    )


def test_bench_cache_warm_path(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "runcache")
    cold, cold_s = _timed(jobs=1, cache=cache)
    assert cache.hits == 0 and cache.stores > 0

    def warm_sweep():
        warm_cache = ResultCache(tmp_path / "runcache")
        figure, elapsed = _timed(jobs=1, cache=warm_cache)
        assert warm_cache.misses == 0 and warm_cache.stores == 0
        assert _figure_text(figure) == _figure_text(cold)
        return elapsed

    warm_s = benchmark.pedantic(warm_sweep, rounds=1, iterations=1)
    print()
    print(
        f"cold {cold_s:.2f}s, warm-cache {warm_s:.2f}s "
        f"-> speedup {cold_s / max(warm_s, 1e-9):.2f}x"
    )

"""Engine micro-benchmarks: scheduler throughput and end-to-end op rate.

Standalone — no pytest needed::

    PYTHONPATH=src python benchmarks/bench_engine_micro.py
    PYTHONPATH=src python benchmarks/bench_engine_micro.py --json out.json
    PYTHONPATH=src python benchmarks/bench_engine_micro.py \\
        --compare results/bench_baseline.json

Each scenario reports two things:

* an **exact count** — fired events for the engine scenarios, simulated
  cycles for the kernel and application runs — fully deterministic,
  compared *exactly* in ``--compare`` mode.  A count drift means the
  simulator changed *behavior* (events created, lost, or double-fired;
  a protocol or cache that times accesses differently), which is a
  correctness regression no matter how fast it got.
* a **throughput** (events or cycles per second) — compared against the
  baseline with a generous tolerance (CI machines vary widely; the gate
  is for order-of-magnitude regressions like an accidental O(n) scan in
  the hot loop, not for noise).

The scenarios stress the event queue's distinct regimes: a serial
hand-off chain (one event in flight), a fan-out mixing near deltas with
multi-thousand-cycle ones (a deep heap), one real kernel run,
independent per-core chains (many events per cycle), engine watches on
unchanged cells (``watch_at`` polls, which spin leases use), a 64-core
Neat spin-heavy kernel (the spin fast-forward's leases), and a 64-core
M-S queue under DeNovoSync (CAS-retry loops: op dispatch and protocol
results).
The watch scenario also runs as a self-rescheduling ``call_after``
poll and fails unless both fire the same number of events.  One more
scenario covers the data path rather than the engine: the LU
application model at 64 cores under Neat (DeNovo L1 line fills and
region self-invalidation), counted in simulated cycles.
``--compare --strict-counts`` additionally fails when any scenario lacks
a baseline entry, so count gating covers new and existing scenarios
alike.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from time import perf_counter

from repro.sim.engine import Simulator

#: Mix of near and far deltas, shaped like the real workloads: mostly
#: short steps, occasional long backoffs.
_DELTAS = (1, 2, 3, 5, 8, 100, 421, 500, 1023, 1024, 2048, 4095)


def _pingpong(n: int = 200_000):
    """Serial chain: each event schedules the next one cycle out."""
    sim = Simulator()
    left = [n]

    def hop(_arg):
        if left[0] > 0:
            left[0] -= 1
            sim.call_after(1, hop, None)

    sim.call_after(0, hop, None)
    start = perf_counter()
    fired = sim.run()
    return fired, perf_counter() - start


def _fanout_mix(n: int = 120_000):
    """Fan-out over mixed deltas: the heap stays deep."""
    sim = Simulator()
    budget = [n]

    def fire(_arg):
        b = budget[0]
        if b <= 0:
            return
        budget[0] = b - 1
        sim.call_after(_DELTAS[b % len(_DELTAS)], fire, None)
        if b & 1:
            sim.call_after(_DELTAS[(b * 7) % len(_DELTAS)], fire, None)

    sim.call_after(0, fire, None)
    start = perf_counter()
    fired = sim.run()
    return fired, perf_counter() - start


def _run_kernel(figure: str, name: str, scale: float, protocol: str, cores: int):
    """Simulated cycles and host seconds of one seed-1 kernel run."""
    from repro.config import config_for_cores
    from repro.harness.runner import run_workload
    from repro.workloads.base import KernelSpec
    from repro.workloads.registry import make_kernel

    workload = make_kernel(figure, name, spec=KernelSpec(scale=scale))
    start = perf_counter()
    result = run_workload(workload, protocol, config_for_cores(cores), seed=1)
    return result.cycles, perf_counter() - start


def _kernel_ops():
    """One real kernel run: the end-to-end rate the engine work targets."""
    return _run_kernel("tatas", "counter", 0.05, "DeNovoSync", 16)


def _uncontended_stretch(cores: int = 32, steps: int = 4_000):
    """Independent per-core local chains, all one cycle apart: every
    cycle fires one event per core."""
    sim = Simulator()
    remaining = [steps] * cores

    def step(core):
        left = remaining[core]
        if left > 0:
            remaining[core] = left - 1
            sim.call_after(1, step, core)

    for core in range(cores):
        sim.call_after(core % 7, step, core)
    start = perf_counter()
    fired = sim.run()
    return fired, perf_counter() - start


def _watched_cells(watch: bool, cells: int = 64, rounds: int = 20):
    """``cells`` spinners each poll their own cell every 49 cycles; one
    writer bumps the cells in turn, 97 cycles apart, and each spinner
    re-arms on the new value until it has seen ``rounds`` changes.
    ``watch`` polls through ``watch_at``; otherwise each poll is a
    callback that reschedules itself with ``call_after``."""
    period, stride = 49, 97
    sim = Simulator()
    values = [0] * cells
    expected = [0] * cells
    seen = [0] * cells

    def write(k):
        values[k % cells] += 1
        if k + 1 < cells * rounds:
            sim.call_after(stride, write, k + 1)

    def poll(cell):
        if values[cell] == expected[cell]:
            sim.call_after(period, poll, cell)
        else:
            changed(cell)

    def arm(cell):
        if watch:
            sim.watch_at(
                sim.now + period, period, partial(values.__getitem__, cell),
                values[cell], changed, cell,
            )
        else:
            expected[cell] = values[cell]
            sim.call_after(period, poll, cell)

    def changed(cell):
        seen[cell] += 1
        if seen[cell] < rounds:
            arm(cell)

    for cell in range(cells):
        arm(cell)
    sim.call_after(stride, write, 0)
    start = perf_counter()
    fired = sim.run()
    return fired, perf_counter() - start


def _watch():
    """Engine watches on unchanged cells; the count must equal the
    same scenario polled by self-rescheduling callbacks."""
    fired, seconds = _watched_cells(watch=True)
    polled, _ = _watched_cells(watch=False)
    if fired != polled:
        raise RuntimeError(
            f"watch fired {fired} events, its call_after twin {polled}"
        )
    return fired, seconds


def _spin_heavy():
    """Neat's 64-core unbounded central barrier: 90%+ of its events are
    failed spin polls of LLC-resident flags, the spin fast-forward's
    target regime."""
    return _run_kernel("barrier", "central (UB)", 0.02, "Neat", 64)


def _cas_retry():
    """The M-S queue at 64 cores under DeNovoSync: CAS-retry loops with
    several synchronization reads per attempt (Figure 5's pattern), where
    op dispatch and the protocol calls' results are the host's work."""
    return _run_kernel("nonblocking", "M-S queue", 0.02, "DeNovoSync", 64)


def _data_path():
    """LU at 64 cores under Neat: line fills, region self-invalidation at
    phase ends and LU's false sharing, with no lock spinning (the DeNovo
    L1's data path)."""
    from repro.config import config_for_cores
    from repro.harness.runner import run_workload
    from repro.workloads.apps import make_app

    workload = make_app("LU", scale=0.1)
    start = perf_counter()
    result = run_workload(workload, "Neat", config_for_cores(64), seed=1)
    return result.cycles, perf_counter() - start


SCENARIOS = {
    "pingpong": (_pingpong, "events"),
    "fanout_mix": (_fanout_mix, "events"),
    "kernel_tatas_16c": (_kernel_ops, "cycles"),
    "uncontended_stretch": (_uncontended_stretch, "events"),
    "watch": (_watch, "events"),
    "spin_heavy_64c": (_spin_heavy, "cycles"),
    "cas_retry_64c": (_cas_retry, "cycles"),
    "app_lu_64c": (_data_path, "cycles"),
}


def run_all() -> dict:
    out = {}
    for name, (fn, unit) in SCENARIOS.items():
        count, seconds = fn()
        out[name] = {
            "count": count,
            "unit": unit,
            "seconds": round(seconds, 4),
            "rate": round(count / seconds) if seconds > 0 else 0,
        }
    return out


def _baseline_scenarios(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "scenarios" in data:
        return data["scenarios"]
    return data["micro"]["scenarios"]


def compare(
    results: dict,
    baseline_path: str,
    tolerance: float,
    strict_counts: bool = False,
) -> int:
    baseline = _baseline_scenarios(baseline_path)
    failures = []
    for name, got in results.items():
        ref = baseline.get(name)
        if ref is None:
            if strict_counts:
                failures.append(
                    f"{name}: no baseline entry — record its count in the "
                    f"baseline (--strict-counts gates every scenario)"
                )
                print(f"{name:22s} (no baseline entry)  MISSING")
            else:
                print(f"{name:22s} (no baseline entry; recorded only)")
            continue
        if got["count"] != ref["count"]:
            failures.append(
                f"{name}: count drift {ref['count']} -> {got['count']} "
                f"(simulated behavior changed)"
            )
            status = "COUNT DRIFT"
        elif got["rate"] < ref["rate"] * tolerance:
            failures.append(
                f"{name}: rate {got['rate']}/s fell below "
                f"{tolerance:.0%} of baseline {ref['rate']}/s"
            )
            status = "TOO SLOW"
        else:
            status = "ok"
        print(
            f"{name:22s} {got['count']:>10d} {got['unit']:6s} "
            f"{got['rate']:>10d}/s (baseline {ref['rate']:>10d}/s)  {status}"
        )
    if failures:
        print("\nperf regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf regression gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None, help="write results JSON here")
    parser.add_argument(
        "--compare", default=None,
        help="baseline JSON (bench_baseline.json or a prior --json output); "
        "exit non-zero on exact fired-count drift or a large slowdown",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="minimum acceptable fraction of the baseline rate (default 0.2)",
    )
    parser.add_argument(
        "--strict-counts", action="store_true",
        help="with --compare: also fail when a scenario has no baseline "
        "entry — every deterministic count field is gated, new and "
        "existing scenarios alike",
    )
    args = parser.parse_args(argv)

    results = run_all()
    for name, row in results.items():
        print(
            f"{name:22s} {row['count']:>10d} {row['unit']:6s} "
            f"in {row['seconds']:8.3f}s = {row['rate']:>10d}/s"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"scenarios": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"results -> {args.json}")
    if args.compare:
        return compare(
            results, args.compare, args.tolerance,
            strict_counts=args.strict_counts,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests for the end-to-end benchmark; run with ``pytest benchmarks/e2e``.

Every test uses the ``--smoke`` cells (two small cells per workload), so
the whole file takes seconds, not the benchmark's minutes.
"""

from __future__ import annotations

import cProfile
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRIPT = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_bench():
    spec = importlib.util.spec_from_file_location("e2e_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _cli(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_matches_the_script():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: spec.why for name, spec in bench.WORKLOADS.items()
    }
    assert _units("end_to_end") == bench.END_TO_END_UNITS
    assert _units("per_layer") == bench.PER_LAYER_UNITS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_end_to_end_metric_is_emitted_with_its_unit_on_every_workload():
    result = _cli("--workload", "all", "--trace", "0")
    assert set(result["workloads"]) == set(bench.WORKLOADS)
    for name, line in result["workloads"].items():
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2, name
        emitted = {metric: value["unit"] for metric, value in line["metrics"].items()}
        assert emitted == _units("end_to_end"), name
        assert all(value["value"] > 0 for value in line["metrics"].values()), name


def test_every_per_layer_metric_is_emitted_with_its_unit_when_traced():
    # apps runs the four-protocol tuple, the odd one out.
    line = _cli("--workload", "apps", "--trace", "1")
    assert line["correct"]
    assert {m: v["unit"] for m, v in line["metrics"].items()} == _units("per_layer")
    assert (ROOT / ".bench_out" / "spans-apps-seed1.jsonl").exists()


def test_a_tampered_golden_digest_is_counted_as_a_failure():
    cells = bench.WORKLOADS["nonblocking"].cells(smoke=True)
    goldens = bench.load_goldens(1)
    run = bench.run_pass(cells, seed=1)
    assert bench.failures([run], goldens) == []

    tampered = {**goldens, cells[0].id: "0" * 16}
    found = bench.failures([run], tampered)
    assert [f["cell"] for f in found] == [cells[0].id]
    assert "digest" in found[0]["reason"]

    missing = {cell: digest for cell, digest in goldens.items() if cell != cells[1].id}
    assert [f["cell"] for f in bench.failures([run], missing)] == [cells[1].id]


def test_the_pass_count_depends_on_seconds_alone():
    for spec in bench.WORKLOADS.values():
        assert spec.passes(15) == round(15 / spec.pass_s) >= 3
        assert spec.passes(15, smoke=True) == 1


def test_final_memory_disagreement_fails_every_cell_of_the_row():
    cells = bench.WORKLOADS["lock64"].cells(smoke=True)  # array counter: a memory group
    run = bench.run_pass(cells, seed=1)
    assert all(outcome.memory is not None for outcome in run.outcomes)
    run.outcomes[1].memory = "f" * 16
    found = bench.failures([run], bench.load_goldens(1))
    assert {f["cell"] for f in found} == {cell.id for cell in cells}


def test_a_seed_without_goldens_still_checks_passes_against_each_other():
    assert bench.load_goldens(987654) is None
    cells = bench.WORKLOADS["small_cells"].cells(smoke=True)
    first, second = bench.run_pass(cells, seed=987654), bench.run_pass(cells, seed=987654)
    assert bench.failures([first, second], None) == []
    second.outcomes[0].digest = "0" * 16
    assert len(bench.failures([first, second], None)) == 1


def _traced(cells):
    profiler = cProfile.Profile()
    run = bench.run_pass(cells, seed=1, label="traced", profiler=profiler)
    return run, *bench.fold_profile(profiler)


def test_traced_layers_account_for_the_profiled_time_and_counts_repeat():
    cells = bench.WORKLOADS["lock64"].cells(smoke=True)
    first, seconds, counts = _traced(cells)
    profiled = sum(outcome.seconds for outcome in first.outcomes)
    assert set(seconds) == set(bench.LAYERS)
    assert sum(seconds.values()) == pytest.approx(profiled, rel=0.05)
    assert counts["cpu.ops"] > 0 and counts["protocols.calls"] > 0 and counts["mem.l1_calls"] > 0

    _, _, again = _traced(cells)
    assert again == counts
    untraced = bench.run_pass(cells, seed=1)
    assert bench.model_counts(first.outcomes) == bench.model_counts(untraced.outcomes)


def test_every_pinned_protocol_resolves():
    from repro.config import config_for_cores
    from repro.mem.address import AddressMap
    from repro.mem.regions import RegionAllocator
    from repro.protocols import make_protocol

    config = config_for_cores(16)
    for name in sorted({*bench.P5, *bench.P4}):
        protocol = make_protocol(name, config, RegionAllocator(AddressMap(config)))
        assert protocol is not None, name


def test_the_tail_is_the_cells_beyond_the_tail_percentile():
    for spec in bench.WORKLOADS.values():
        times = [float(i) for i in range(len(spec.cells()))]
        pct = bench.tail_percentile(len(times))
        cut = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
        beyond = [t for t in times if t > cut]
        assert bench.TAIL_CELLS <= len(beyond) < len(times) / 2
        assert bench.tail_mean(times) == statistics.fmean(beyond)
    assert bench.tail_mean([2.0, 1.0]) == 2.0
    assert bench.interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]) == 3.5

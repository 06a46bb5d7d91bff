"""Golden-run determinism of the event queue and the spin-lease path.

Every consumer of the simulator — figures, chaos differential runs, model
checking, trace capture — relies on the deterministic (cycle, seq) firing
order.  These tests pin that down:

* the same workload run twice produces byte-identical stats JSON and
  byte-identical trace files, for every registry protocol;
* spin leases change host work, never results: with leases Neat (the one
  registry protocol whose failed polls are stateless) elides polls, with
  its lease hook disabled it elides none, and both runs give
  byte-identical summaries.
"""

import hashlib
import json

import pytest

from repro.config import config_for_cores
from repro.harness.runner import run_workload
from repro.protocols.neat import NeatProtocol
from repro.protocols.registry import protocol_names
from repro.trace.events import write_trace
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

CELLS = [
    ("tatas", "counter"),  # lock kernel
    ("barrier", "central"),  # barrier kernel
    ("nonblocking", "M-S queue"),  # non-blocking kernel
]
# Every protocol the plugin registry knows about, not just the figure set:
# the determinism and lease contracts must hold for all of them.
PROTOCOLS = list(protocol_names())


def _golden(family, name, protocol, tmp_path, tag):
    """(stats JSON bytes, trace SHA-256) for one traced run."""
    workload = make_kernel(family, name, spec=KernelSpec(scale=0.02))
    result = run_workload(
        workload, protocol, config_for_cores(4), seed=1, trace=True
    )
    path = tmp_path / f"{tag}.jsonl"
    write_trace(result.meta["trace"], path)
    stats = json.dumps(result.summary(), sort_keys=True).encode()
    return stats, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family,name", CELLS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_repeat_runs_are_byte_identical(family, name, protocol, tmp_path):
    first = _golden(family, name, protocol, tmp_path, "first")
    second = _golden(family, name, protocol, tmp_path, "second")
    assert first == second


@pytest.mark.parametrize("family,name", [("tatas", "counter"),
                                         ("barrier", "central")])
def test_spin_leases_leave_results_byte_identical(family, name, monkeypatch):
    """The spin fast-forward must actually engage and still match.

    Tracing wraps the protocol (which disables leasing), so this check
    runs untraced.
    """
    def run():
        workload = make_kernel(family, name, spec=KernelSpec(scale=0.02))
        return run_workload(workload, "Neat", config_for_cores(16), seed=1)

    leased = run()
    monkeypatch.setattr(NeatProtocol, "spin_poll_lease", lambda self, core, addr: None)
    polled = run()
    assert leased.meta["epoch"]["spin_polls_elided"] > 0
    assert polled.meta["epoch"]["spin_polls_elided"] == 0
    assert json.dumps(leased.summary(), sort_keys=True) == json.dumps(
        polled.summary(), sort_keys=True
    )

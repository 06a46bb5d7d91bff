"""The generic (non-power-of-two) address-math fallbacks.

Every standard geometry is power-of-two, so the hot paths inline
shift/mask arithmetic and keep a ``line_shift``/``bank_mask is None``
branch that calls the :class:`~repro.mem.address.AddressMap` methods
instead.  These tests run that branch: once by forcing it on a
power-of-two machine (the results must not change at all), and once on
a 9-core machine, whose 9 LLC banks take the generic bank mapping.
"""

from __future__ import annotations

import json

import pytest

from repro.config import config_for_cores
from repro.harness.runner import run_workload
from repro.protocols.registry import protocol_names
from repro.workloads.apps import make_app
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

PROTOCOLS = list(protocol_names())

WORKLOADS = {
    "tatas/counter": lambda: make_kernel("tatas", "counter", spec=KernelSpec(scale=0.02)),
    "nonblocking/Herlihy heap": lambda: make_kernel(
        "nonblocking", "Herlihy heap", spec=KernelSpec(scale=0.02)
    ),
    "app/LU": lambda: make_app("LU", scale=0.02),
    "app/ferret": lambda: make_app("ferret", scale=0.02),
}


def _run(workload: str, protocol: str) -> tuple[str, bool]:
    """(summary and counters as JSON, whether the generic math ran)."""
    result = run_workload(
        WORKLOADS[workload](), protocol, config_for_cores(16), seed=1,
        keep_protocol=True,
    )
    amap = result.meta["protocol"].amap
    generic = amap.line_shift is None and amap.bank_mask is None
    return (
        json.dumps([result.summary(), result.counters.as_dict()], sort_keys=True),
        generic,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_generic_address_math_matches_the_shift_mask_paths(
    workload, protocol, monkeypatch
):
    fast, fast_is_generic = _run(workload, protocol)
    monkeypatch.setattr("repro.mem.address._shift_for", lambda value: None)
    generic, generic_is_generic = _run(workload, protocol)
    assert (fast_is_generic, generic_is_generic) == (False, True)
    assert generic == fast


def test_nine_core_machine_agrees_across_protocols():
    """9 LLC banks: every protocol runs tatas/counter under the full
    runtime invariant checker and ends with the same memory."""
    config = config_for_cores(9, invariant_level="full")
    assert config.l2_banks == 9
    finals = {}
    for protocol in PROTOCOLS:
        workload = make_kernel("tatas", "counter", spec=KernelSpec(scale=0.02))
        result = run_workload(
            workload, protocol, config, seed=1, keep_protocol=True
        )
        finals[protocol] = result.meta["protocol"].memory.snapshot()
    reference = finals[PROTOCOLS[0]]
    assert reference
    assert all(final == reference for final in finals.values()), sorted(
        name for name, final in finals.items() if final != reference
    )

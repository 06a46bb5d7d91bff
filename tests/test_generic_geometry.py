"""The one address-math path, on power-of-two and other bank counts.

Every hot-path site maps word -> line -> home bank with ``//``, ``%`` and
``*``.  The simulator used to inline shift/mask arithmetic on
power-of-two machines instead; the pinned digests below are the results
that shift/mask path produced on a 16-core machine, so the ``//``/``%``
path must reproduce them byte for byte.  A 9-core machine has 9 LLC
banks, so its line-to-bank interleaving ``line % 9`` exercises the
address math on an input the figure sweeps never produce.
"""

from __future__ import annotations

import hashlib
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

#: sha256 (16 hex chars) of the sorted-JSON summary and counters of each
#: cell at 16 cores, seed 1, as the shift/mask path computed them.  Do
#: not regenerate these from the current code to make a failure pass: a
#: mismatch means the address math no longer matches what it replaced.
SHIFT_MASK_DIGESTS = {
    ("tatas/counter", "DeNovoSync"): "3039e214efea138a",
    ("tatas/counter", "DeNovoSync0"): "e87c62eb99c6c5dc",
    ("tatas/counter", "DeNovoSyncSig"): "0f5b90a146aea525",
    ("tatas/counter", "MESI"): "74d416dede43ebaa",
    ("tatas/counter", "MESI-RFO"): "81da5d27b82cabaf",
    ("tatas/counter", "Neat"): "e8d86cc63550aafb",
    ("tatas/counter", "SynCron"): "bec840239467674d",
    ("nonblocking/Herlihy heap", "DeNovoSync"): "298e017de84a4fc5",
    ("nonblocking/Herlihy heap", "DeNovoSync0"): "88c00865fd654dfa",
    ("nonblocking/Herlihy heap", "DeNovoSyncSig"): "9512e9b3cafb619e",
    ("nonblocking/Herlihy heap", "MESI"): "d94391523047ecd6",
    ("nonblocking/Herlihy heap", "MESI-RFO"): "016b53034b0c9a23",
    ("nonblocking/Herlihy heap", "Neat"): "ded98eeac31504de",
    ("nonblocking/Herlihy heap", "SynCron"): "2f70180c7b44fc11",
    ("app/LU", "DeNovoSync"): "9ceab6930a858ab8",
    ("app/LU", "DeNovoSync0"): "203d7f78c585be11",
    ("app/LU", "DeNovoSyncSig"): "df264dad97c43fb1",
    ("app/LU", "MESI"): "1d73dcc5b97f4103",
    ("app/LU", "MESI-RFO"): "f86fcbf063ff4fb3",
    ("app/LU", "Neat"): "b91bbe7d6b304e6f",
    ("app/LU", "SynCron"): "ccb3577e2098cef0",
    ("app/ferret", "DeNovoSync"): "ff1457f96a013d3a",
    ("app/ferret", "DeNovoSync0"): "2b732b19b516d129",
    ("app/ferret", "DeNovoSyncSig"): "7d2f1b5a0c584d45",
    ("app/ferret", "MESI"): "07917e0331f08520",
    ("app/ferret", "MESI-RFO"): "847aacf6eede71a9",
    ("app/ferret", "Neat"): "9fb2dd4a310f5639",
    ("app/ferret", "SynCron"): "0cf0bbf7bee8b860",
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_generic_address_math_matches_the_shift_mask_paths(workload, protocol):
    result = run_workload(
        WORKLOADS[workload](), protocol, config_for_cores(16), seed=1
    )
    payload = {"summary": result.summary(), "counters": result.counters.as_dict()}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == SHIFT_MASK_DIGESTS[workload, protocol]


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

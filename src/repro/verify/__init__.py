"""Small-scope exhaustive protocol verification.

The paper's section 4 derives DeNovoSync from four sufficient conditions
for sequentially consistent synchronization (write propagation, write
atomicity, write serialization, program order).  This package checks them
the brute-force way: enumerate *every* interleaving of small per-core
operation sequences, drive the protocol through each, and verify that
all synchronization accesses observe the latest committed write and that
the protocol's coherence invariants (:mod:`repro.protocols.invariants`)
hold after every step.
"""

from repro.verify.checker import (
    CheckFailure,
    Op,
    VerificationReport,
    data_store,
    explore_protocol,
    rmw_inc,
    sync_load,
    sync_store,
)

__all__ = [
    "CheckFailure",
    "Op",
    "VerificationReport",
    "data_store",
    "explore_protocol",
    "rmw_inc",
    "sync_load",
    "sync_store",
]

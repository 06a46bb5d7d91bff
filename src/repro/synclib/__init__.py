"""Synchronization algorithms built on the simulated memory operations.

Everything here is written against the thread-program ISA
(:mod:`repro.cpu.isa`): methods are generators used with ``yield from``,
and every shared-memory interaction goes through the coherence protocol,
so lock handoffs, CAS contention, registration ping-ponging and backoff
all emerge from the simulated hardware.
"""

from repro.synclib.tatas import TatasLock
from repro.synclib.arraylock import ArrayLock
from repro.synclib.mcslock import McsLock
from repro.synclib.barriers import CentralBarrier, TreeBarrier
from repro.synclib.backoff_sw import exponential_backoff
from repro.synclib.counters import FaiCounter, LockedCounter
from repro.synclib.msqueue import MichaelScottQueue
from repro.synclib.pljqueue import PLJQueue
from repro.synclib.treiber import TreiberStack
from repro.synclib.herlihy import HerlihyHeap, HerlihyStack
from repro.synclib.locked_structures import (
    DoubleLockQueue,
    LockedHeap,
    LockedStack,
    SingleLockQueue,
)

__all__ = [
    "ArrayLock",
    "CentralBarrier",
    "McsLock",
    "DoubleLockQueue",
    "FaiCounter",
    "HerlihyHeap",
    "HerlihyStack",
    "LockedCounter",
    "LockedHeap",
    "LockedStack",
    "MichaelScottQueue",
    "PLJQueue",
    "SingleLockQueue",
    "TatasLock",
    "TreiberStack",
    "exponential_backoff",
]

"""DeNovoSync (ASPLOS 2015) reproduction.

An execution-driven multicore coherence simulator comparing MESI against
the DeNovoSync protocols (synchronization without writer-initiated
invalidations), with the paper's 24 synchronization kernels, 13
application models, and a harness regenerating every evaluation figure.

Quick start::

    from repro import config_16, make_kernel, run_workload, KernelSpec

    workload = make_kernel("tatas", "counter", spec=KernelSpec(scale=0.2))
    result = run_workload(workload, "DeNovoSync", config_16(), seed=1)
    print(result.cycles, result.traffic_breakdown())

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.config import (
    BackoffConfig,
    LatencyRange,
    ProtocolTuning,
    SystemConfig,
    config_16,
    config_64,
    config_for_cores,
)
from repro.harness.runner import run_workload
from repro.protocols import make_protocol
from repro.protocols.invariants import InvariantViolation
from repro.sim.watchdog import HangError, SimulationStuck, Watchdog
from repro.stats.collector import RunResult
from repro.workloads.base import KernelSpec

__version__ = "1.0.0"

__all__ = [
    "BackoffConfig",
    "FaultInjector",
    "FaultPlan",
    "HangError",
    "InvariantViolation",
    "KernelSpec",
    "LatencyRange",
    "ProtocolTuning",
    "RunResult",
    "SimulationStuck",
    "SystemConfig",
    "Watchdog",
    "config_16",
    "config_64",
    "config_for_cores",
    "make_app",
    "make_kernel",
    "make_protocol",
    "run_workload",
]


def __getattr__(name: str):
    # The fault injector loads only when asked for (the runner imports it
    # only for runs with a fault plan), so ``import repro`` skips it.
    if name in ("FaultInjector", "FaultPlan"):
        from repro.noc import faults

        return getattr(faults, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def make_kernel(*args, **kwargs):
    """Build one of the 24 synchronization kernels (lazy import)."""
    from repro.workloads.registry import make_kernel as _make_kernel

    return _make_kernel(*args, **kwargs)


def make_app(*args, **kwargs):
    """Build one of the 13 application models (lazy import)."""
    from repro.workloads.apps import make_app as _make_app

    return _make_app(*args, **kwargs)

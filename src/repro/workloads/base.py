"""Workload abstractions and the synchronization-kernel driver.

A :class:`Workload` builds, for a given system configuration, a
:class:`WorkloadInstance`: a region allocator populated with the shared
data, initial memory values, and one thread program (generator) per core.

The kernel driver reproduces the paper's measurement methodology
(section 5.3.1): each core runs ``iterations`` iterations of the kernel
body with a uniformly random dummy-computation window between iterations
(charged to the *non-synch* component), and all cores meet in a tree
barrier at the end whose wait time is charged to the *barrier* component
(exposing load imbalance caused by synchronization contention).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Generator, Iterable

from repro.config import SystemConfig
from repro.cpu.isa import Compute, PopBucket, PushBucket
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.stats.timeparts import BARRIER_STALL, NON_SYNCH

#: The paper's dummy-computation windows between kernel iterations.
NON_SYNCH_RANGE_16 = (1400, 1800)
NON_SYNCH_RANGE_64 = (6200, 6600)
#: ... and the wider windows for the unbalanced barrier variants.
UNBALANCED_RANGE_16 = (400, 2800)
UNBALANCED_RANGE_64 = (1600, 11200)

#: Paper iteration counts: 100 for most kernels, 1000 for the FAI counter.
PAPER_ITERATIONS = 100
PAPER_ITERATIONS_FAI = 1000


def non_synch_range(config: SystemConfig, unbalanced: bool = False) -> tuple[int, int]:
    """The dummy-compute window for this system size (paper section 5.3.1)."""
    if unbalanced:
        return UNBALANCED_RANGE_16 if config.num_cores <= 16 else UNBALANCED_RANGE_64
    return NON_SYNCH_RANGE_16 if config.num_cores <= 16 else NON_SYNCH_RANGE_64


@dataclass
class WorkloadInstance:
    """Everything the runner needs to execute one workload."""

    name: str
    allocator: RegionAllocator
    programs: list[Generator]
    initial_values: dict[int, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


class Workload(ABC):
    """A named, buildable workload."""

    name = "abstract"

    @abstractmethod
    def build(self, config: SystemConfig, *, seed: int = 0) -> WorkloadInstance:
        """Create the shared state and per-core programs for ``config``."""


@dataclass
class KernelSpec:
    """Parameters of one synchronization-kernel run.

    ``scale`` shrinks the paper's iteration counts proportionally so the
    full figure sweeps stay tractable in pure Python; benches record the
    scale they used.  ``unbalanced`` selects the wider dummy-compute window
    used for the unbalanced barrier variants.
    """

    iterations: int = PAPER_ITERATIONS
    scale: float = 1.0
    unbalanced: bool = False

    def scaled_iterations(self) -> int:
        return max(1, round(self.iterations * self.scale))


class KernelWorkload(Workload):
    """Base class for the 24 synchronization kernels.

    Subclasses implement :meth:`setup` (allocate shared structures, return
    initial memory values) and :meth:`body` (one kernel iteration for one
    thread).  The driver adds the dummy compute and the end barrier.
    """

    #: Pad synchronization variables to their own cache line; the
    #: lock-padding ablation builds with False.
    padded = True

    def __init__(self, spec: KernelSpec | None = None):
        self.spec = spec or KernelSpec()

    @abstractmethod
    def setup(self, config: SystemConfig, allocator: RegionAllocator) -> dict[int, int]:
        """Allocate shared state; return initial memory values (addr -> value)."""

    @abstractmethod
    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        """One iteration of the kernel for thread ``ctx`` (a generator)."""

    def build(self, config: SystemConfig, *, seed: int = 0) -> WorkloadInstance:
        import random

        from repro.mem.address import AddressMap
        from repro.synclib.barriers import TreeBarrier

        allocator = RegionAllocator(AddressMap(config), pad_sync_vars=self.padded)
        initial = dict(self.setup(config, allocator))
        end_barrier = TreeBarrier(allocator, config.num_cores, name="__end_barrier")
        window = non_synch_range(config, self.spec.unbalanced)
        iterations = self.spec.scaled_iterations()

        programs = []
        for core_id in range(config.num_cores):
            ctx = ThreadCtx(
                core_id=core_id,
                num_cores=config.num_cores,
                config=config,
                allocator=allocator,
                rng=random.Random((seed << 20) ^ (core_id * 2654435761 % 2**32)),
            )
            programs.append(self._program(ctx, iterations, window, end_barrier))
        return WorkloadInstance(
            name=self.name,
            allocator=allocator,
            programs=programs,
            initial_values=initial,
            meta={"iterations": iterations, "scale": self.spec.scale},
        )

    def _program(self, ctx: ThreadCtx, iterations, window, end_barrier):
        for iteration in range(iterations):
            yield Compute(ctx.uniform_cycles(*window), NON_SYNCH)
            yield from self.body(ctx, iteration)
        yield PushBucket(BARRIER_STALL)
        yield from end_barrier.wait(ctx, episode=1)
        yield PopBucket()

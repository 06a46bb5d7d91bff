"""Barrier synchronization kernels (paper Figure 6).

Three barriers — static binary tree, static tree with fan-in 4 / fan-out
2 (``n-ary``), and a centralized sense-reversing barrier — each in a
load-balanced and an unbalanced variant.  Per section 5.3.1 each kernel
iteration executes two barrier instances around a dummy computation; the
unbalanced variants draw their dummy computation from a much wider window
([400, 2800) at 16 cores, [1600, 11200) at 64) to stress the barrier with
stragglers.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.config import SystemConfig
from repro.cpu.isa import Compute
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.stats.timeparts import NON_SYNCH
from repro.synclib.barriers import CentralBarrier, TreeBarrier
from repro.workloads.base import KernelSpec, KernelWorkload, non_synch_range

BARRIER_TYPES = ("tree", "n-ary", "central")


class BarrierKernel(KernelWorkload):
    """Two barrier instances around dummy computation, per iteration."""

    def __init__(
        self,
        barrier_type: str = "tree",
        unbalanced: bool = False,
        spec: KernelSpec | None = None,
    ):
        spec = spec or KernelSpec()
        spec.unbalanced = unbalanced
        super().__init__(spec)
        if barrier_type not in BARRIER_TYPES:
            raise ValueError(
                f"unknown barrier type {barrier_type!r}; expected {BARRIER_TYPES}"
            )
        self.barrier_type = barrier_type
        self.name = f"{barrier_type} (UB)" if unbalanced else barrier_type

    def setup(self, config: SystemConfig, allocator: RegionAllocator):
        if self.barrier_type == "tree":
            self.barrier = TreeBarrier(
                allocator, config.num_cores, fan_in=2, fan_out=2, name="kbar"
            )
        elif self.barrier_type == "n-ary":
            self.barrier = TreeBarrier(
                allocator, config.num_cores, fan_in=4, fan_out=2, name="kbar"
            )
        else:
            self.barrier = CentralBarrier(allocator, config.num_cores, name="kbar")
        self._window = non_synch_range(config, self.spec.unbalanced)
        return {}

    def body(self, ctx: ThreadCtx, iteration: int) -> Iterable:
        yield from self.barrier.wait(ctx, episode=2 * iteration + 1)
        yield Compute(ctx.uniform_cycles(*self._window), NON_SYNCH)
        yield from self.barrier.wait(ctx, episode=2 * iteration + 2)


def barrier_kernel_names() -> list[str]:
    """The six Figure 6 bars, in figure order."""
    names = list(BARRIER_TYPES)
    names.extend(f"{b} (UB)" for b in BARRIER_TYPES)
    return names


def make_barrier_kernel(name: str, spec: KernelSpec | None = None) -> BarrierKernel:
    unbalanced = name.endswith(" (UB)")
    barrier_type = name[: -len(" (UB)")] if unbalanced else name
    return BarrierKernel(barrier_type, unbalanced=unbalanced, spec=spec)

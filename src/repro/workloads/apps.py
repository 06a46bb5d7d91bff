"""Behavioural models of the 13 SPLASH-2 / PARSEC applications (Figure 7).

The paper's application results are driven by each benchmark's
synchronization pattern (barrier-only, barriers+locks, aggressive
non-blocking, pipeline) plus a handful of data-access traits it calls out
explicitly: LU's false sharing (word-granularity DeNovo is immune), the
conservative whole-region self-invalidation that hurts DeNovo on
fluidanimate, and canneal's CAS-heavy pointer swaps.  We encode those
traits as an :class:`AppProfile` per benchmark; the actual protocol
behaviour — misses, invalidations, registrations, traffic — emerges from
the simulator.  Absolute cycle counts are not meaningful (inputs are
synthetic); the MESI-vs-DeNovoSync ratios are the reproduced quantity.

Profiles are calibrated by *structure* (which pattern dominates), not by
fitting the paper's output numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.cpu.isa import Compute, Load, PopBucket, PushBucket, SelfInvalidate, Store, WaitLoad
from repro.cpu.thread import ThreadCtx
from repro.mem.regions import RegionAllocator
from repro.stats.timeparts import BARRIER_STALL
from repro.synclib.barriers import TreeBarrier
from repro.synclib.tatas import TatasLock
from repro.workloads.base import Workload, WorkloadInstance


@dataclass(frozen=True)
class AppProfile:
    """Traits of one application's behavioural model.

    * ``phases`` / ``accesses_per_phase``: bulk structure of the parallel
      computation (each phase ends in a tree barrier).
    * ``private_frac`` / ``shared_read_frac`` / ``shared_write_frac``:
      data-access mix (fractions of each phase's accesses).
    * ``pad_private``: False gives adjacent threads' private data shared
      cache lines — LU-style false sharing.
    * ``locks`` / ``cs_per_phase`` / ``cs_accesses``: lock-protected
      critical sections per thread per phase.
    * ``selfinv_whole_shared``: True self-invalidates the *entire* shared
      region at every lock acquire (fluidanimate's conservative static
      regions) instead of just the lock's own small region.
    * ``cas_swaps_per_phase``: canneal-style lock-free CAS pointer swaps.
    * ``pipeline_stages``: >0 switches to the pipeline-parallel program
      shape (ferret/x264) with producer-consumer queues between stages.
    """

    name: str
    cores: int = 64
    phases: int = 4
    accesses_per_phase: int = 220
    private_words: int = 512
    shared_words: int = 4096
    private_frac: float = 0.70
    shared_read_frac: float = 0.24
    shared_write_frac: float = 0.06
    pad_private: bool = True
    locks: int = 0
    cs_per_phase: int = 0
    cs_accesses: int = 4
    selfinv_whole_shared: bool = False
    cas_swaps_per_phase: int = 0
    pipeline_stages: int = 0
    items_per_stage: int = 24
    compute_gap: int = 3
    #: When set, each thread's shared reads come from a window of this many
    #: words (high reuse).  Reuse is what conservative self-invalidation
    #: destroys, so fluidanimate-style apps set this together with
    #: ``selfinv_whole_shared``.
    shared_window: int | None = None
    #: The section 3 no-information fallback: self-invalidate *everything*
    #: (not just the protected regions) at every acquire and phase
    #: boundary.  Always correct, maximally conservative.
    flush_all_selfinv: bool = False
    #: Shared-access pattern: "uniform" random; "transpose" (FFT-style:
    #: write your block, read the others' blocks walk); "stencil"
    #: (ocean-style: your band plus the neighbouring halo rows).
    shared_pattern: str = "uniform"


class AppWorkload(Workload):
    """Executable behavioural model for one :class:`AppProfile`."""

    def __init__(self, profile: AppProfile, scale: float = 1.0):
        self.profile = profile
        self.scale = scale
        self.name = profile.name

    # -- construction ------------------------------------------------------

    def build(self, config: SystemConfig, *, seed: int = 0) -> WorkloadInstance:
        profile = self.profile
        allocator = RegionAllocator(
            __import__("repro.mem.address", fromlist=["AddressMap"]).AddressMap(config)
        )
        initial: dict[int, int] = {}
        n = config.num_cores

        # Shared data: one region, optionally sub-divided per lock.
        shared = allocator.alloc("app.shared", max(profile.shared_words, 64))
        shared_region = allocator.region("app.shared")

        # Private data: padded (own lines) or interleaved across threads so
        # neighbours share lines (false sharing under MESI).
        private_bases: list[int] = []
        if profile.pad_private:
            for t in range(n):
                base = allocator.alloc(
                    f"app.private{t}", profile.private_words, line_align=True
                ).base
                private_bases.append(base)
        else:
            words = profile.private_words
            block = allocator.alloc("app.private_interleaved", words * n)
            # Thread t owns words t, t+n, t+2n, ... — every line is shared
            # by `words_per_line` different threads.
            private_bases = [block.base + t for t in range(n)]

        locks = [
            TatasLock(allocator, f"app.lock{i}") for i in range(profile.locks)
        ]
        lock_regions = []
        lock_data = []
        for i in range(profile.locks):
            lock_regions.append(allocator.region(f"app.lockdata{i}"))
            lock_data.append(
                allocator.alloc(f"app.lockdata{i}", max(profile.cs_accesses, 4)).base
            )

        barrier = TreeBarrier(allocator, n, name="app.bar")
        end_barrier = TreeBarrier(allocator, n, name="app.endbar")

        pipeline = None
        if profile.pipeline_stages > 0:
            pipeline = _PipelinePlumbing(allocator, n, profile)

        shared_ctx = _AppShared(
            profile=profile,
            shared_base=shared.base,
            shared_words=max(profile.shared_words, 64),
            shared_region=shared_region,
            private_bases=private_bases,
            private_stride=1 if profile.pad_private else n,
            locks=locks,
            lock_regions=lock_regions,
            lock_data=lock_data,
            barrier=barrier,
            pipeline=pipeline,
        )

        programs = []
        for core_id in range(n):
            ctx = ThreadCtx(
                core_id=core_id,
                num_cores=n,
                config=config,
                allocator=allocator,
                rng=random.Random((seed << 18) ^ (0x9E3779B9 * (core_id + 1) % 2**32)),
            )
            programs.append(self._program(ctx, shared_ctx, end_barrier))
        return WorkloadInstance(
            name=profile.name,
            allocator=allocator,
            programs=programs,
            initial_values=initial,
            meta={"scale": self.scale, "profile": profile.name},
        )

    # -- the thread program --------------------------------------------------

    def _program(self, ctx: ThreadCtx, app: "_AppShared", end_barrier: TreeBarrier):
        profile = self.profile
        if profile.pipeline_stages > 0:
            yield from _pipeline_program(ctx, app, self.scale)
        else:
            accesses = max(1, round(profile.accesses_per_phase * self.scale))
            for phase in range(profile.phases):
                # Critical sections and CAS swaps are interleaved with the
                # data work, as in the real codes (a lock acquire in the
                # middle of the sweep is what makes conservative
                # self-invalidation costly: it wrecks the reuse of data
                # read so far).
                yield from _phase_work(ctx, app, accesses)
                yield from app.barrier.wait(ctx, episode=phase + 1)
                # Phase boundary: self-invalidate the shared region so the
                # next phase cannot see stale data (DeNovo's static scheme).
                if profile.flush_all_selfinv:
                    yield SelfInvalidate(flush_all=True)
                else:
                    yield SelfInvalidate((app.shared_region,))
        yield PushBucket(BARRIER_STALL)
        yield from end_barrier.wait(ctx, episode=10_000_000)
        yield PopBucket()


@dataclass
class _AppShared:
    """Shared structures of one built app instance."""

    profile: AppProfile
    shared_base: int
    shared_words: int
    shared_region: object
    private_bases: list[int]
    private_stride: int
    locks: list[TatasLock]
    lock_regions: list
    lock_data: list[int]
    barrier: TreeBarrier
    pipeline: "_PipelinePlumbing" | None


def _phase_work(ctx: ThreadCtx, app: _AppShared, accesses: int):
    """One phase: the data loop with critical sections and CAS swaps
    interleaved at evenly spaced points."""
    profile = app.profile
    cs_every = (
        max(1, accesses // (profile.cs_per_phase + 1))
        if app.locks and profile.cs_per_phase
        else None
    )
    swap_every = (
        max(1, accesses // (profile.cas_swaps_per_phase + 1))
        if profile.cas_swaps_per_phase
        else None
    )
    base = app.private_bases[ctx.core_id]
    stride = app.private_stride
    private_idx = 0
    shared_idx = 0
    gap = Compute(profile.compute_gap)  # yielded as is: nothing mutates an op
    for i in range(accesses):
        if cs_every and i % cs_every == cs_every - 1:
            yield from _one_critical_section(ctx, app)
        if swap_every and i % swap_every == swap_every - 1:
            yield from _one_cas_swap(ctx, app)
        yield gap
        roll = ctx.rng.random()
        if roll < profile.private_frac:
            addr = base + (private_idx % profile.private_words) * stride
            private_idx += 1
            if ctx.rng.random() < 0.4:
                yield Store(addr, i)
            else:
                yield Load(addr)
        elif roll < profile.private_frac + profile.shared_read_frac:
            yield Load(_shared_read_addr(ctx, app, shared_idx))
            shared_idx += 1
        else:
            yield Store(_shared_write_addr(ctx, app, i), i)


def _block_geometry(ctx: ThreadCtx, app: _AppShared) -> tuple[int, int]:
    """(block size, my block start) for block-partitioned shared data."""
    block = max(1, app.shared_words // ctx.num_cores)
    return block, (ctx.core_id * block) % app.shared_words


def _shared_read_addr(ctx: ThreadCtx, app: _AppShared, index: int) -> int:
    profile = app.profile
    if profile.shared_pattern == "transpose":
        # FFT all-to-all: walk the *other* threads' blocks in turn.
        block, _ = _block_geometry(ctx, app)
        other = (ctx.core_id + 1 + index // block) % ctx.num_cores
        offset = (other * block + index % block) % app.shared_words
        return app.shared_base + offset
    if profile.shared_pattern == "stencil":
        # Ocean nearest-neighbour: my band plus the adjacent halo rows.
        block, start = _block_geometry(ctx, app)
        halo = max(4, block // 8)
        span = block + 2 * halo
        offset = (start - halo + ctx.rng.randrange(span)) % app.shared_words
        return app.shared_base + offset
    if profile.shared_window:
        window = min(profile.shared_window, app.shared_words)
        start = (ctx.core_id * window) % max(1, app.shared_words - window)
        return app.shared_base + start + ctx.rng.randrange(window)
    return app.shared_base + ctx.rng.randrange(app.shared_words)


def _shared_write_addr(ctx: ThreadCtx, app: _AppShared, index: int) -> int:
    if app.profile.shared_pattern in ("transpose", "stencil"):
        # Owner-computes: writes land in the thread's own block.
        block, start = _block_geometry(ctx, app)
        return app.shared_base + start + index % block
    return app.shared_base + ctx.rng.randrange(app.shared_words)


def _one_critical_section(ctx: ThreadCtx, app: _AppShared):
    """One lock-protected update (barriers+locks apps)."""
    profile = app.profile
    which = ctx.rng.randrange(len(app.locks))
    lock = app.locks[which]
    token = yield from lock.acquire(ctx)
    if profile.flush_all_selfinv:
        yield SelfInvalidate(flush_all=True)
    elif profile.selfinv_whole_shared:
        # Conservative static regions: invalidate everything writeable
        # under any lock (fluidanimate's problem under DeNovo).
        yield SelfInvalidate((app.shared_region, app.lock_regions[which]))
    else:
        yield SelfInvalidate((app.lock_regions[which],))
    data = app.lock_data[which]
    for k in range(profile.cs_accesses):
        value = yield Load(data + k)
        yield Store(data + k, value + 1)
    yield from lock.release(token)


def _one_cas_swap(ctx: ThreadCtx, app: _AppShared):
    """One canneal-style lock-free element swap via CAS loops."""
    from repro.cpu.isa import Cas

    a = app.shared_base + ctx.rng.randrange(min(64, app.shared_words))
    b = app.shared_base + ctx.rng.randrange(min(64, app.shared_words))
    for addr in (a, b):
        attempt = 0
        while True:
            old = yield Load(addr, sync=True)
            got = yield Cas(addr, old, (old + ctx.core_id + 1) % 65536)
            if got == old:
                break
            attempt += 1
            yield Compute(min(128 << min(attempt, 4), 2048))


class _PipelinePlumbing:
    """Producer-consumer mailboxes forming a pipeline (ferret/x264).

    Threads are assigned round-robin to ``pipeline_stages`` stages; each
    adjacent pair (t, t+1) communicates through a single-slot mailbox: a
    payload line (data) plus a sequence flag (sync).  The producer writes
    the payload, then publishes the sequence number with a release store;
    the consumer spins on the flag, self-invalidates the payload region,
    and consumes.
    """

    PAYLOAD_WORDS = 8

    def __init__(self, allocator: RegionAllocator, nthreads: int, profile: AppProfile):
        self.nthreads = nthreads
        self.flags = [
            allocator.alloc(f"pipe.flag{t}", 1, line_align=True).base
            for t in range(nthreads)
        ]
        self.acks = [
            allocator.alloc(f"pipe.ack{t}", 1, line_align=True).base
            for t in range(nthreads)
        ]
        self.payload_region = allocator.region("pipe.payload")
        self.payloads = [
            allocator.alloc("pipe.payload", self.PAYLOAD_WORDS, line_align=True).base
            for _ in range(nthreads)
        ]


def _pipeline_program(ctx: ThreadCtx, app: _AppShared, scale: float):
    """One pipeline thread: consume from the left, work, produce right.

    Thread 0 sources items; the last thread sinks them.  Flow control is a
    one-deep mailbox per link with an ack flag back to the producer.
    """
    profile = app.profile
    pipe = app.pipeline
    assert pipe is not None
    items = max(1, round(profile.items_per_stage * scale))
    me = ctx.core_id
    left = me - 1
    work = max(1, round(profile.accesses_per_phase * scale / 8))
    private = app.private_bases[me]
    gap = Compute(profile.compute_gap)

    for seq in range(1, items + 1):
        if left >= 0:
            # Consume: wait for the item (the successful probe is the
            # acquire), self-invalidate, read the payload.
            yield WaitLoad(
                pipe.flags[left], lambda v, s=seq: v >= s,
                sync=True, acquire=True,
            )
            yield SelfInvalidate((pipe.payload_region,))
            for w in range(pipe.PAYLOAD_WORDS):
                yield Load(pipe.payloads[left] + w)
        # Stage work on private data.
        for i in range(work):
            yield gap
            addr = private + (seq * work + i) % profile.private_words
            if i % 3 == 0:
                yield Store(addr, i)
            else:
                yield Load(addr)
        if me < ctx.num_cores - 1:
            # Flow control: wait for the consumer to drain the previous
            # item (acquire: the producer re-writes the payload words the
            # consumer just read, so the ack must order those reads).
            if seq > 1:
                yield WaitLoad(
                    pipe.acks[me], lambda v, s=seq: v >= s - 1,
                    sync=True, acquire=True,
                )
            for w in range(pipe.PAYLOAD_WORDS):
                yield Store(pipe.payloads[me] + w, seq + w)
            yield Store(pipe.flags[me], seq, sync=True, release=True)
        if left >= 0:
            yield Store(pipe.acks[left], seq, sync=True, release=True)


#: Figure 7's benchmark set.  ferret and x264 run on 16 cores (their
#: simulation inputs do not fill 64 cores concurrently); everything else
#: runs on 64.  Traits follow the paper's classification in section 7.2.
APP_PROFILES: dict[str, AppProfile] = {
    # -- barrier-only ---------------------------------------------------------
    "FFT": AppProfile(
        name="FFT", phases=6, private_frac=0.55, shared_read_frac=0.38,
        shared_write_frac=0.07, accesses_per_phase=240,
        shared_pattern="transpose",  # the all-to-all transpose phases
    ),
    "LU": AppProfile(
        name="LU", phases=6, private_frac=0.78, shared_read_frac=0.18,
        shared_write_frac=0.04, pad_private=False,  # the paper: false sharing
        accesses_per_phase=240,
    ),
    "blackscholes": AppProfile(
        name="blackscholes", phases=2, private_frac=0.92,
        shared_read_frac=0.07, shared_write_frac=0.01, accesses_per_phase=400,
    ),
    "swaptions": AppProfile(
        name="swaptions", phases=2, private_frac=0.94, shared_read_frac=0.05,
        shared_write_frac=0.01, accesses_per_phase=400,
    ),
    "radix": AppProfile(
        name="radix", phases=5, private_frac=0.60, shared_read_frac=0.15,
        shared_write_frac=0.25, accesses_per_phase=240,  # scatter writes
    ),
    # -- barriers + locks --------------------------------------------------------
    "bodytrack": AppProfile(
        name="bodytrack", phases=5, private_frac=0.75, shared_read_frac=0.20,
        shared_write_frac=0.05, locks=8, cs_per_phase=3, cs_accesses=4,
        accesses_per_phase=220,
    ),
    "barnes": AppProfile(
        name="barnes", phases=4, private_frac=0.55, shared_read_frac=0.35,
        shared_write_frac=0.10, locks=32, cs_per_phase=6, cs_accesses=4,
        accesses_per_phase=220,
    ),
    "water": AppProfile(
        name="water", phases=5, private_frac=0.80, shared_read_frac=0.14,
        shared_write_frac=0.06, locks=16, cs_per_phase=4, cs_accesses=3,
        accesses_per_phase=220,
    ),
    "ocean": AppProfile(
        name="ocean", phases=8, private_frac=0.62, shared_read_frac=0.32,
        shared_write_frac=0.06, locks=2, cs_per_phase=1, cs_accesses=2,
        accesses_per_phase=200, shared_pattern="stencil",
    ),
    "fluidanimate": AppProfile(
        name="fluidanimate", phases=5, private_frac=0.55,
        shared_read_frac=0.39, shared_write_frac=0.06,
        locks=32, cs_per_phase=8, cs_accesses=3,
        selfinv_whole_shared=True,  # conservative static self-invalidation
        shared_window=96,  # neighbouring-cell reuse that the selfinv wrecks
        accesses_per_phase=200,
    ),
    # -- aggressive non-blocking ------------------------------------------------
    "canneal": AppProfile(
        name="canneal", phases=4, private_frac=0.55, shared_read_frac=0.30,
        shared_write_frac=0.15, cas_swaps_per_phase=6, accesses_per_phase=200,
    ),
    # -- pipeline parallelism ------------------------------------------------------
    "ferret": AppProfile(
        name="ferret", cores=16, pipeline_stages=6, items_per_stage=30,
        accesses_per_phase=240, private_words=512,
    ),
    "x264": AppProfile(
        name="x264", cores=16, pipeline_stages=8, items_per_stage=30,
        accesses_per_phase=320, private_words=768,
    ),
}

APP_NAMES = list(APP_PROFILES)


def make_app(name: str, scale: float = 1.0) -> AppWorkload:
    """Build the named Figure 7 application model."""
    try:
        profile = APP_PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown app {name!r}; expected one of {APP_NAMES}") from None
    return AppWorkload(profile, scale=scale)


def app_core_count(name: str) -> int:
    """The paper's core count for this app (16 for ferret/x264, else 64)."""
    return APP_PROFILES[name].cores

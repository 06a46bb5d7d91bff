"""Differential testing: randomly generated data-race-free programs must
compute identical results under every protocol.

A generator builds random programs from properly-synchronized building
blocks (lock-protected commutative updates, barrier-separated phase
writes, FAI tickets).  Because the programs are data-race-free and their
shared updates commute, the final shared state is schedule-independent —
so all five protocols, whose timing differs wildly, must agree exactly.
A protocol bug that loses an update, serves a stale value where
freshness is required, or breaks RMW atomicity shows up as divergence.
"""

import random

import pytest

from repro.config import config_for_cores
from repro.cpu.isa import Compute, Fai, Load, SelfInvalidate, Store
from repro.harness.runner import run_workload
from repro.mem.address import AddressMap
from repro.mem.regions import RegionAllocator
from repro.protocols import protocol_names
from repro.synclib.barriers import TreeBarrier
from repro.synclib.tatas import TatasLock
from repro.workloads.base import Workload, WorkloadInstance

NUM_CORES = 4


class RandomDrfProgram(Workload):
    """A random but properly synchronized workload."""

    name = "random-drf"

    def __init__(self, seed: int, blocks_per_core: int = 8):
        self.seed = seed
        self.blocks_per_core = blocks_per_core

    def build(self, config, *, seed=0):
        from repro.cpu.thread import ThreadCtx

        rng = random.Random(self.seed)
        allocator = RegionAllocator(AddressMap(config))
        n = config.num_cores

        locks = [TatasLock(allocator, f"rl{i}") for i in range(3)]
        lock_regions = [allocator.region(f"rdata{i}") for i in range(3)]
        lock_words = [allocator.alloc(f"rdata{i}", 4).base for i in range(3)]
        fai = allocator.alloc_sync("rfai").base
        barrier = TreeBarrier(allocator, n, name="rbar")
        phase_region = allocator.region("rphase")
        phase_words = allocator.alloc("rphase", n).base
        end_barrier = TreeBarrier(allocator, n, name="rend")

        # A shared round skeleton: "phase" rounds are collective (every
        # core joins the same barrier episode); "free" rounds let each
        # core do its own lock-protected update or FAI.
        rounds = [
            "phase" if rng.random() < 0.3 else "free"
            for _ in range(self.blocks_per_core)
        ]
        free_actions = [
            [
                (rng.choice(["lock", "fai"]), rng.randrange(3), rng.randrange(4))
                for _ in range(self.blocks_per_core)
            ]
            for _ in range(n)
        ]

        def program(ctx: ThreadCtx):
            episode = 0
            for round_no, kind in enumerate(rounds):
                yield Compute(ctx.rng.randrange(20, 400))
                if kind == "phase":
                    episode += 1
                    yield Store(phase_words + ctx.core_id, episode)
                    yield from barrier.wait(ctx, episode=episode)
                    yield SelfInvalidate((phase_region,))
                    for other in range(ctx.num_cores):
                        yield Load(phase_words + other)
                    continue
                action, which, offset = free_actions[ctx.core_id][round_no]
                if action == "lock":
                    lock = locks[which]
                    yield from lock.acquire(ctx)
                    yield SelfInvalidate((lock_regions[which],))
                    value = yield Load(lock_words[which] + offset)
                    yield Compute(ctx.rng.randrange(1, 30))
                    yield Store(lock_words[which] + offset, value + 1)
                    yield from lock.release()
                else:
                    yield Fai(fai)
            yield from end_barrier.wait(ctx, episode=10**6)

        programs = []
        for core_id in range(n):
            ctx = ThreadCtx(
                core_id=core_id, num_cores=n, config=config,
                allocator=allocator,
                rng=random.Random(self.seed * 31 + core_id),
            )
            programs.append(program(ctx))
        instance = WorkloadInstance(self.name, allocator, programs)
        instance.meta["lock_words"] = lock_words
        instance.meta["fai"] = fai
        return instance


def _final_state(seed: int, protocol: str) -> dict[int, int]:
    """Run the seeded random program; return the shared words' values."""
    workload = RandomDrfProgram(seed)
    config = config_for_cores(NUM_CORES)
    result = run_workload(workload, protocol, config, seed=7, keep_protocol=True)
    protocol_obj = result.meta["protocol"]
    instance = workload.build(config, seed=7)  # rebuild for the addresses
    state = {}
    for base in instance.meta["lock_words"]:
        for offset in range(4):
            state[base + offset] = protocol_obj.memory.read(base + offset)
    state[instance.meta["fai"]] = protocol_obj.memory.read(instance.meta["fai"])
    return state


class TestBarrierEpisodeBug:
    def test_barrier_episodes_monotonic(self):
        """Guard: the random generator must produce strictly increasing
        barrier episodes per barrier (validity of the workload itself)."""
        workload = RandomDrfProgram(seed=3)
        config = config_for_cores(NUM_CORES)
        result = run_workload(workload, "MESI", config, seed=7)
        assert result.cycles > 0


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
class TestCrossProtocolAgreement:
    def test_all_protocols_agree_on_final_state(self, seed):
        states = {
            protocol: _final_state(seed, protocol) for protocol in protocol_names()
        }
        reference = states["MESI"]
        total = sum(reference.values())
        assert total > 0  # the program actually did work
        for protocol, state in states.items():
            assert state == reference, (
                f"{protocol} diverged from MESI on seed {seed}"
            )

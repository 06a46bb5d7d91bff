"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.config import SystemConfig, config_for_cores
from repro.cpu.core import Core
from repro.cpu.thread import ThreadCtx
from repro.mem.address import AddressMap
from repro.mem.regions import RegionAllocator
from repro.protocols import make_protocol, protocol_names
from repro.sim.engine import Simulator

ALL_PROTOCOLS = list(protocol_names())


@pytest.fixture(params=ALL_PROTOCOLS)
def protocol_name(request):
    return request.param


class MiniMachine:
    """A small harness for running hand-built thread programs in tests."""

    def __init__(self, protocol_name: str, num_cores: int = 4):
        self.config: SystemConfig = config_for_cores(num_cores)
        self.allocator = RegionAllocator(AddressMap(self.config))
        self.protocol = make_protocol(protocol_name, self.config, self.allocator)
        self.sim = Simulator()
        self.cores = [Core(i, self.sim, self.protocol) for i in range(num_cores)]

    def ctx(self, core_id: int, seed: int = 0) -> ThreadCtx:
        return ThreadCtx(
            core_id=core_id,
            num_cores=self.config.num_cores,
            config=self.config,
            allocator=self.allocator,
            rng=random.Random(seed * 1000 + core_id),
        )

    def run(self, programs, max_events: int = 5_000_000) -> None:
        for addr, value in getattr(self, "initial_values", {}).items():
            self.protocol.memory.write(addr, value)
        for core, program in zip(self.cores, programs):
            core.start(program)
        self.sim.run(max_events=max_events)
        stuck = [c.core_id for c in self.cores[: len(programs)] if not c.done]
        assert not stuck, f"cores {stuck} deadlocked at cycle {self.sim.now}"


@pytest.fixture
def machine_factory():
    return MiniMachine

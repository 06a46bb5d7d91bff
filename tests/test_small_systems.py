"""Edge-case coverage for degenerate system sizes (1 and 4 cores)."""

import pytest

from repro.config import config_for_cores
from repro.harness.runner import run_workload
from repro.noc.mesh import Mesh
from repro.protocols import protocol_names
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel


class TestOneCoreSystem:
    def test_config(self):
        config = config_for_cores(1)
        assert config.mesh_side == 1
        assert config.max_hops == 0

    def test_mesh_degenerates_gracefully(self):
        config = config_for_cores(1)
        mesh = Mesh(config)
        assert mesh.hops(0, 0) == 0
        assert mesh.per_hop_cycles() == 0.0
        assert mesh.l2_access_latency(0, 0) == config.l2_hit_latency.min
        assert mesh.nearest_controller(0) == 0
        assert mesh.invalidation_round_trip(0, 0) == config.tuning.inv_processing

    @pytest.mark.parametrize("protocol", list(protocol_names()))
    def test_kernel_runs_on_one_core(self, protocol):
        workload = make_kernel("tatas", "counter", spec=KernelSpec(iterations=3))
        result = run_workload(
            workload, protocol, config_for_cores(1), seed=1, keep_protocol=True
        )
        assert result.meta["protocol"].memory.read(workload.counter.addr) == 3
        # Nothing crosses a link in a one-tile mesh.
        assert result.total_traffic == 0

    @pytest.mark.parametrize("protocol", list(protocol_names()))
    def test_barrier_on_one_core(self, protocol):
        workload = make_kernel("barrier", "central", spec=KernelSpec(iterations=2))
        result = run_workload(workload, protocol, config_for_cores(1), seed=1)
        assert result.cycles > 0


class TestFourCoreSystem:
    @pytest.mark.parametrize(
        "figure,name",
        [("tatas", "counter"), ("nonblocking", "Treiber stack"), ("barrier", "tree")],
    )
    def test_kernels_run(self, figure, name):
        workload = make_kernel(figure, name, spec=KernelSpec(iterations=3))
        result = run_workload(workload, "DeNovoSync", config_for_cores(4), seed=1)
        assert result.cycles > 0

    def test_controllers_on_2x2_mesh(self):
        mesh = Mesh(config_for_cores(4))
        assert mesh._controller_tiles == (0, 1, 2, 3)

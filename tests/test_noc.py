"""Tests for the mesh topology, message sizing and traffic ledger."""

import pytest

from repro.config import LatencyRange, ProtocolTuning, config_16, config_64, config_for_cores
from repro.harness.runner import run_workload
from repro.noc.mesh import Mesh
from repro.noc.messages import (
    BYTES_PER_FLIT,
    CONTROL_FLITS,
    MessageClass,
    control_flits,
    data_flits,
)
from repro.noc.traffic import TrafficLedger
from repro.protocols import make_protocol
from repro.protocols.base import CoherenceProtocol
from repro.protocols.registry import protocol_names
from repro.workloads.apps import make_app
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel


class TestMeshTopology:
    def test_coords_row_major(self):
        mesh = Mesh(config_16())
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(3) == (3, 0)
        assert mesh.coords(4) == (0, 1)
        assert mesh.coords(15) == (3, 3)

    def test_coords_out_of_range(self):
        mesh = Mesh(config_16())
        with pytest.raises(ValueError):
            mesh.coords(16)

    def test_hops_manhattan(self):
        mesh = Mesh(config_16())
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 3) == 3
        assert mesh.hops(0, 15) == 6
        assert mesh.hops(5, 10) == 2

    def test_hops_symmetric(self):
        mesh = Mesh(config_64())
        for a, b in [(0, 63), (10, 20), (7, 56)]:
            assert mesh.hops(a, b) == mesh.hops(b, a)

    def test_controllers_at_corners(self):
        mesh = Mesh(config_16())
        assert mesh._controller_tiles == (0, 3, 12, 15)

    def test_nearest_controller(self):
        mesh = Mesh(config_16())
        assert mesh.nearest_controller(0) == 0
        assert mesh.nearest_controller(5) == 0  # ties break to lowest id
        assert mesh.nearest_controller(11) == 15


class TestLatencyModel:
    @pytest.mark.parametrize("config", [config_16(), config_64()])
    def test_l2_range_matches_table1(self, config):
        mesh = Mesh(config)
        latencies = [
            mesh.l2_access_latency(c, b)
            for c in range(config.num_cores)
            for b in range(config.l2_banks)
        ]
        assert min(latencies) == config.l2_hit_latency.min
        assert max(latencies) == config.l2_hit_latency.max

    @pytest.mark.parametrize("config", [config_16(), config_64()])
    def test_remote_l1_range_matches_table1(self, config):
        mesh = Mesh(config)
        latencies = [
            mesh.remote_l1_latency(0, b, o)
            for b in range(config.l2_banks)
            for o in range(config.num_cores)
        ]
        assert min(latencies) == config.remote_l1_latency.min
        assert max(latencies) == config.remote_l1_latency.max

    @pytest.mark.parametrize("config", [config_16(), config_64()])
    def test_memory_range_within_table1(self, config):
        mesh = Mesh(config)
        latencies = [
            mesh.memory_latency(c, b)
            for c in range(config.num_cores)
            for b in range(config.l2_banks)
        ]
        assert min(latencies) >= config.memory_latency.min
        assert max(latencies) == config.memory_latency.max

    def test_latency_grows_with_distance(self):
        mesh = Mesh(config_16())
        assert mesh.l2_access_latency(0, 0) < mesh.l2_access_latency(0, 15)

    def test_invalidation_round_trip_zero_hops(self):
        mesh = Mesh(config_16())
        assert mesh.invalidation_round_trip(3, 3) == 4  # processing only

    def test_invalidation_round_trip_grows(self):
        mesh = Mesh(config_16())
        assert mesh.invalidation_round_trip(0, 15) > mesh.invalidation_round_trip(0, 1)


#: Every table a Mesh shares with the other meshes of its configuration.
TABLES = (
    "_hops",
    "_nearest_controller",
    "_remote_by_leg",
    "_l2_latency",
    "_memory_latency",
    "_inv_round_trip",
)


class TestSharedTables:
    def test_one_configuration_shares_read_only_tables(self):
        a, b = Mesh(config_16()), Mesh(config_16())
        for name in TABLES:
            assert isinstance(getattr(a, name), tuple), name
            assert getattr(a, name) is getattr(b, name), name

    def test_fields_the_tables_do_not_read_share_them(self):
        base = Mesh(config_16())
        other = Mesh(config_16(tuning=ProtocolTuning(bank_occupancy=8), l1_assoc=4))
        for name in TABLES:
            assert getattr(base, name) is getattr(other, name), name

    @pytest.mark.parametrize(
        "change, table",
        [
            (dict(tuning=ProtocolTuning(inv_processing=9)), "_inv_round_trip"),
            (dict(l2_hit_latency=LatencyRange(30, 80)), "_l2_latency"),
            (dict(remote_l1_latency=LatencyRange(40, 120)), "_remote_by_leg"),
            (dict(memory_latency=LatencyRange(150, 300)), "_memory_latency"),
        ],
        ids=["inv_processing", "l2_hit_latency", "remote_l1_latency", "memory_latency"],
    )
    def test_each_table_field_gets_its_own_tables(self, change, table):
        base = Mesh(config_16())
        other = Mesh(config_16(**change))
        assert getattr(other, table) is not getattr(base, table)
        assert getattr(other, table) != getattr(base, table)
        assert other._hops == base._hops

    @pytest.mark.parametrize("cores", [4, 16, 64])
    def test_tables_equal_their_closed_forms(self, cores):
        config = config_for_cores(cores)
        mesh = Mesh(config)
        side, max_hops = config.mesh_side, config.max_hops
        l2 = config.l2_hit_latency
        per_hop = (l2.max - l2.min) / (2 * max_hops)
        corners = (0, side - 1, side * (side - 1), side * side - 1)

        def hops(a, b):
            return abs(a % side - b % side) + abs(a // side - b // side)

        for a in range(cores):
            for b in range(cores):
                i = a * cores + b
                h = hops(a, b)
                controller = min(corners, key=lambda c: (hops(b, c), c))
                leg = max(h, hops(b, controller))
                assert mesh._hops[i] == h
                assert mesh._l2_latency[i] == l2.interpolate(h, max_hops)
                assert mesh._memory_latency[i] == config.memory_latency.interpolate(
                    leg, max_hops
                )
                assert mesh._inv_round_trip[i] == (
                    round(2 * h * per_hop) + config.tuning.inv_processing
                )


class TestMessageSizing:
    def test_control_flits(self):
        assert control_flits() == CONTROL_FLITS

    def test_data_flits_word(self):
        assert data_flits(4) == CONTROL_FLITS + 2

    def test_data_flits_line(self):
        assert data_flits(64) == CONTROL_FLITS + 32

    def test_data_flits_rounds_up(self):
        assert data_flits(3) == CONTROL_FLITS + 2
        assert data_flits(1) == CONTROL_FLITS + 1

    def test_data_flits_zero_payload(self):
        assert data_flits(0) == CONTROL_FLITS

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            data_flits(-1)

    def test_flit_carries_two_bytes(self):
        assert BYTES_PER_FLIT == 2  # 16-bit flits per Table 1


class TestTrafficLedger:
    """The ledger as the protocols fill it: through ``record_control`` and
    ``record_data`` on a bare protocol (16 tiles, hops(0, 3) == 3)."""

    def test_flit_crossings_multiply_hops(self):
        protocol = make_protocol("MESI", config_16())
        protocol.record_data(MessageClass.LOAD, 0, 3, 10)  # 10 flits
        ledger = protocol.traffic
        assert ledger.flit_crossings() == 30
        assert ledger.flit_crossings(MessageClass.LOAD) == 30
        assert ledger.flit_crossings(MessageClass.STORE) == 0

    def test_zero_hop_messages_are_free(self):
        protocol = make_protocol("MESI", config_16())
        protocol.record_data(MessageClass.LOAD, 5, 5, 10)
        assert protocol.traffic.flit_crossings() == 0
        assert protocol.traffic.message_count() == 1

    def test_breakdown_covers_all_classes(self):
        protocol = make_protocol("MESI", config_16())
        protocol.record_control(MessageClass.INVALIDATION, 0, 2)
        breakdown = protocol.traffic.breakdown()
        assert breakdown["Inv"] == 10
        assert set(breakdown) == {"LD", "ST", "SYNCH", "WB", "Inv"}

    def test_negative_rejected(self):
        protocol = make_protocol("MESI", config_16())
        with pytest.raises(ValueError):
            protocol.record_data(MessageClass.LOAD, 0, 2, -1)

    def test_non_message_class_key_raises(self):
        # Keys are MessageClass members only; a foreign key is a caller
        # bug, not a side-table entry.
        ledger = TrafficLedger()
        with pytest.raises(AttributeError):
            ledger.flit_crossings("ext-probe")
        with pytest.raises(AttributeError):
            ledger.message_count("ext-probe")
        protocol = make_protocol("MESI", config_16())
        with pytest.raises(AttributeError):
            protocol.record_control("ext-probe", 0, 5)
        with pytest.raises(AttributeError):
            protocol.record_data("ext-probe", 0, 5, 4)
        assert ledger.message_count() == protocol.traffic.message_count() == 0


class TestOneMessagePath:
    """Every message any protocol charges goes through ``record_control``
    or ``record_data``: wrappers around the two calls, sizing each
    message on their own, see exactly the traffic the ledger ends with.
    The runs include cold LLC fills, DeNovo registrations and Neat's
    settled spin leases."""

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_ledger_is_the_sum_of_the_two_calls(self, protocol, monkeypatch):
        seen: dict[MessageClass, list[int]] = {}

        def charge(proto, klass, flits, src, dst, times):
            row = seen.setdefault(klass, [0, 0])
            row[0] += flits * proto.mesh.hops(src, dst) * times
            row[1] += times

        record_control = CoherenceProtocol.record_control
        record_data = CoherenceProtocol.record_data

        def seen_control(proto, klass, src, dst):
            charge(proto, klass, CONTROL_FLITS, src, dst, 1)
            record_control(proto, klass, src, dst)

        def seen_data(proto, klass, src, dst, payload_bytes, times=1):
            charge(proto, klass, data_flits(payload_bytes), src, dst, times)
            record_data(proto, klass, src, dst, payload_bytes, times)

        monkeypatch.setattr(CoherenceProtocol, "record_control", seen_control)
        monkeypatch.setattr(CoherenceProtocol, "record_data", seen_data)
        workloads = (
            make_kernel("tatas", "counter", spec=KernelSpec(scale=0.05)),
            make_app("LU", scale=0.05),
        )
        for workload in workloads:
            seen.clear()
            result = run_workload(workload, protocol, config_16(), seed=1)
            ledger = result.traffic
            assert ledger.message_count() > 0
            for klass in MessageClass:
                assert seen.get(klass, [0, 0]) == [
                    ledger.flit_crossings(klass),
                    ledger.message_count(klass),
                ], (workload.name, klass)
            if protocol == "Neat":
                # The leased polls are settled, not probed: cover them.
                assert result.meta["epoch"]["spin_polls_elided"] > 0


def _fill_placement(proto) -> tuple[int, int, int, int, int]:
    """(first core, second core, line-aligned address, home bank, the
    bank's memory controller) with all four tiles distinct, so a fill's
    two messages cannot be mistaken for the access's own."""
    wpl = proto.amap.words_per_line
    for line in range(1, 4 * proto.config.num_cores):
        bank = proto.amap.home_bank(line)
        controller = proto.mesh.nearest_controller(bank)
        cores = [c for c in range(proto.config.num_cores) if c not in (bank, controller)]
        if bank != controller and len(cores) >= 2:
            return cores[0], cores[1], line * wpl, bank, controller
    raise AssertionError("no line with distinct bank and controller tiles")


class TestColdMissFill:
    """A line's first touch, under every protocol, charges one memory
    fill in the class of the access that missed (inside
    ``llc_fetch_latency``); a later miss on the line charges none."""

    ACCESSES = {
        "load": lambda proto, core, addr: proto.load(core, addr),
        "rmw": lambda proto, core, addr: proto.rmw(core, addr, lambda old: old + 1),
    }

    @pytest.mark.parametrize("access", sorted(ACCESSES))
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_first_touch_charges_one_fill_in_its_own_class(
        self, protocol, access, monkeypatch
    ):
        log: list[tuple[MessageClass, int, int, int]] = []
        record_control = CoherenceProtocol.record_control
        record_data = CoherenceProtocol.record_data

        def seen_control(proto, klass, src, dst):
            log.append((klass, src, dst, 0))
            record_control(proto, klass, src, dst)

        def seen_data(proto, klass, src, dst, payload_bytes, times=1):
            log.extend([(klass, src, dst, payload_bytes)] * times)
            record_data(proto, klass, src, dst, payload_bytes, times)

        monkeypatch.setattr(CoherenceProtocol, "record_control", seen_control)
        monkeypatch.setattr(CoherenceProtocol, "record_data", seen_data)
        proto = make_protocol(protocol, config_16())
        first, second, addr, bank, controller = _fill_placement(proto)

        def fill_messages():
            legs = ((bank, controller), (controller, bank))
            return sorted(m for m in log if m[1:3] in legs)

        proto.now = 1_000
        self.ACCESSES[access](proto, first, addr)
        requests = {k for k, src, dst, size in log if (src, dst, size) == (first, bank, 0)}
        assert len(requests) == 1, log
        (klass,) = requests
        if access == "load":
            assert klass is MessageClass.LOAD
        assert fill_messages() == sorted([
            (klass, bank, controller, 0),
            (klass, controller, bank, proto.config.line_bytes),
        ])
        assert proto.counters.get("cold_misses") == 1

        log.clear()
        proto.now = 2_000
        _, _, hit, retry = self.ACCESSES[access](proto, second, addr + 1)
        assert not hit and not retry
        assert fill_messages() == []
        assert proto.counters.get("cold_misses") == 1

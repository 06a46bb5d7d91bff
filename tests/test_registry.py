"""Tests for the protocol plugin registry: capability descriptors,
query helpers, the derived comparison sets the harness layers consume,
and ``make_protocol``'s near-miss error path."""

import gc
import weakref

import pytest

import repro.protocols as protocols_pkg
from repro.config import config_for_cores
from repro.mem.address import AddressMap
from repro.mem.regions import RegionAllocator
from repro.protocols import make_protocol
from repro.protocols.registry import (
    ProtocolInfo,
    app_comparison_set,
    default_comparison_set,
    get_info,
    iter_protocols,
    protocol_names,
    protocols_with,
    registry_markdown_table,
    registry_table,
)


class TestDescriptors:
    def test_every_backend_is_registered(self):
        names = protocol_names()
        assert set(names) >= {
            "MESI", "DeNovoSync0", "DeNovoSync", "DeNovoSyncSig",
            "MESI-RFO", "Neat", "SynCron",
        }
        # MESI registers first: it is the figures' baseline column.
        assert names[0] == "MESI"

    def test_info_fields(self):
        info = get_info("DeNovoSync")
        assert isinstance(info, ProtocolInfo)
        assert info.label == "DS"
        assert info.tracking == "registry"
        assert info.invalidation == "self"
        assert info.backoff == "adaptive"
        assert info.requires_annotations
        assert info.cls is protocols_pkg.DeNovoSyncProtocol

    def test_labels_are_unique(self):
        labels = [info.label for info in iter_protocols()]
        assert len(labels) == len(set(labels))

    def test_capability_vocabulary_is_validated(self):
        from repro.protocols.registry import register_protocol

        with pytest.raises(ValueError, match="tracking"):
            register_protocol(
                name="Bogus", label="B", paper="-", summary="-",
                tracking="psychic", invalidation="self",
            )(type("Bogus", (), {}))

    def test_descriptor_class_matches_instantiated_protocol(self):
        config = config_for_cores(4)
        allocator = RegionAllocator(AddressMap(config))
        for info in iter_protocols():
            protocol = make_protocol(info.name, config, allocator)
            assert type(protocol) is info.cls
            assert protocol.name == info.name


class TestCapabilityQueries:
    def test_protocols_with_matches_attribute_equality(self):
        assert set(protocols_with(invalidation="writer")) == {
            "MESI", "MESI-RFO",
        }
        assert protocols_with(backoff="adaptive") == (
            "DeNovoSync", "DeNovoSyncSig",
        )

    def test_unknown_capability_field_raises(self):
        with pytest.raises(TypeError, match="no capability field"):
            protocols_with(quantum=True)

    def test_default_comparison_set(self):
        assert default_comparison_set() == (
            "MESI", "DeNovoSync0", "DeNovoSync", "Neat", "SynCron",
        )

    def test_app_comparison_set(self):
        assert app_comparison_set() == (
            "MESI", "DeNovoSync", "Neat", "SynCron",
        )

    def test_chaos_set_is_the_default_set(self):
        """Both chaos harnesses sweep the registry's default set — no
        hard-coding."""
        from repro.harness.chaos import CHAOS_PROTOCOLS
        from repro.service.chaos import ChaosConfig

        assert CHAOS_PROTOCOLS == default_comparison_set()
        assert ChaosConfig().protocols == default_comparison_set()

    def test_sanitize_filter_picks_exactly_the_self_invalidators(self):
        from repro.protocols.registry import sanitize_comparison_set

        expected = tuple(
            info.name
            for info in iter_protocols()
            if info.invalidation == "self"
        )
        assert sanitize_comparison_set() == expected
        assert "MESI" not in expected  # writer-initiated: no stale oracle

    def test_experiment_defaults_derive_from_registry(self):
        from repro.harness.experiments import APP_PROTOCOLS, KERNEL_PROTOCOLS

        assert KERNEL_PROTOCOLS == default_comparison_set()
        assert APP_PROTOCOLS == app_comparison_set()


class TestMakeProtocolErrors:
    def test_case_insensitive_near_miss(self):
        with pytest.raises(ValueError) as excinfo:
            make_protocol("mesi", config_for_cores(4))
        message = str(excinfo.value)
        assert "unknown protocol 'mesi'" in message
        assert "did you mean 'MESI'?" in message

    def test_close_match_suggestion(self):
        with pytest.raises(ValueError) as excinfo:
            make_protocol("DeNovoSink", config_for_cores(4))
        assert "did you mean" in str(excinfo.value)
        assert "DeNovoSync" in str(excinfo.value)

    def test_no_suggestion_for_garbage(self):
        with pytest.raises(ValueError) as excinfo:
            make_protocol("zzzzqqqq", config_for_cores(4))
        message = str(excinfo.value)
        assert "expected one of" in message
        assert "did you mean" not in message


@pytest.mark.parametrize("name", protocol_names())
def test_dropped_protocol_is_freed_without_the_cycle_collector(name):
    """No protocol is a reference cycle: the last reference going away
    frees it (and its L1 frames) at once, so peak memory does not depend
    on when the cycle collector runs."""
    config = config_for_cores(4)
    protocol = make_protocol(name, config, RegionAllocator(AddressMap(config)))
    alive = weakref.ref(protocol)
    gc.disable()
    try:
        del protocol
        assert alive() is None
    finally:
        gc.enable()


class TestPresentation:
    def test_text_table_has_one_row_per_protocol(self):
        table = registry_table()
        for name in protocol_names():
            assert name in table

    def test_markdown_table_is_embedded_in_docs(self):
        """The satellite CI check, enforced in-suite too: README and
        architecture docs embed the generated table verbatim."""
        import os

        table = registry_markdown_table()
        root = os.path.join(os.path.dirname(__file__), "..")
        for doc in ("README.md", os.path.join("docs", "architecture.md")):
            with open(os.path.join(root, doc)) as fh:
                assert table in fh.read(), f"{doc} protocol table is stale"

    def test_protocols_cli_target(self, capsys):
        from repro.harness.cli import main as cli_main

        assert cli_main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "SynCron" in out and "dirty-set" in out

    def test_protocols_cli_json_lists_every_capability(self, capsys):
        import dataclasses
        import json

        from repro.harness.cli import main as cli_main

        assert cli_main(["protocols", "--format", "json"]) == 0
        infos = json.loads(capsys.readouterr().out)
        keys = {f.name for f in dataclasses.fields(ProtocolInfo)} - {"cls"}
        assert [info["name"] for info in infos] == [i.name for i in iter_protocols()]
        assert all(set(info) == keys for info in infos)
        assert {info["name"]: info["formal_model"] for info in infos}["MESI"] == "mesi"

    def test_protocols_cli_check_doc_detects_drift(self, tmp_path, capsys):
        from repro.harness.cli import main as cli_main

        stale = tmp_path / "stale.md"
        stale.write_text("# no table here\n")
        fresh = tmp_path / "fresh.md"
        fresh.write_text("intro\n\n" + registry_markdown_table() + "\n")
        assert cli_main(["protocols", "--check-doc", str(fresh)]) == 0
        assert cli_main(["protocols", "--check-doc", str(stale)]) == 1

"""Formal protocol models: conformance, exploration, oracle, TLA+ export.

Structure:

* registry-driven clean checks — every protocol that declares a
  ``formal_model`` capability must pass static conformance (all events
  covered, zero findings) and small-scope exhaustive exploration (zero
  violations, every model state occupied);
* mutation tests — a deliberately wrong model must *fail*: deleting
  DeNovoSync0's sync-read steal rules trips the conformance diff and
  the litmus divergence oracle, and deleting MESI's writer-initiated
  invalidations trips the explorer's SWMR invariant with a replayable
  counterexample trace; a wrong implementation must fail too, including
  a DeNovoSync whose own hook breaks the model it shares with
  DeNovoSync0;
* divergence oracle — clean litmus replays for the modelled protocols;
* golden TLA+ pinning — the export is byte-stable against the
  committed ``results/formal/*.tla`` (regenerate them with
  ``denovosync-bench formal`` after a deliberate model change);
* the ``formal`` cell/CLI plumbing.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.formal import conformance
from repro.formal.conformance import check_protocol
from repro.formal.explore import ExploreScope, explore_model
from repro.formal.model import (
    EVENTS,
    MODELS,
    FormalModel,
    get_model,
    replace_rules,
)
from repro.formal.oracle import replay_corpus
from repro.formal.tla import export_tla, module_name
from repro.protocols.registry import formal_model_set, get_info
from repro.sanitize.findings import (
    KIND_FORBIDDEN_TRANSITION,
    KIND_MODEL_DIVERGENCE,
    KIND_MODEL_INVARIANT,
    KIND_UNHANDLED_TRANSITION,
    SEVERITY_ERROR,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "results" / "formal"

MODELLED = formal_model_set()


class TestRegistryWiring:
    def test_formal_model_set_names_real_models(self):
        # A backend may declare the model of a protocol it extends, but
        # never one written for an unrelated protocol.
        assert MODELLED, "no protocol declares a formal model"
        for protocol in MODELLED:
            info = get_info(protocol)
            assert info.formal_model in MODELS
            modelled = get_info(get_model(info.formal_model).protocol).cls
            assert issubclass(info.cls, modelled), (protocol, modelled)

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ValueError, match="unknown formal model"):
            get_model("nope")

    def test_paper_protocols_are_modelled(self):
        assert "MESI" in MODELLED
        assert "DeNovoSync0" in MODELLED


class TestModelValidation:
    def test_bad_initial_state_rejected(self):
        model = get_model("mesi")
        with pytest.raises(ValueError, match="not a state"):
            dataclasses.replace(model, initial="Z")

    def test_rule_with_unknown_state_rejected(self):
        model = get_model("mesi")
        bad = dataclasses.replace(model.rules[0], post="Z")
        with pytest.raises(ValueError, match="unknown state"):
            replace_rules(model, (bad,) + model.rules[1:])

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_every_event_has_rules(self, name):
        model = get_model(name)
        for event in EVENTS:
            assert model.rules_for(event), f"{name}: no rules for {event}"


@pytest.mark.parametrize("protocol", MODELLED)
class TestConformanceClean:
    def test_implementation_conforms(self, protocol):
        result = check_protocol(get_info(protocol))
        assert result.findings == [], [f.message for f in result.findings]

    def test_every_event_covered(self, protocol):
        result = check_protocol(get_info(protocol))
        assert sorted(result.coverage) == sorted(EVENTS)
        for event, cover in result.coverage.items():
            assert cover["handlers"], f"{protocol}: {event} has no handlers"
            assert set(cover["expected"]) <= set(cover["writes"]), (
                protocol,
                event,
                cover,
            )


@pytest.mark.parametrize("protocol", MODELLED)
class TestExplorationClean:
    def test_small_scope_exhaustive(self, protocol):
        model = get_model(get_info(protocol).formal_model)
        result = explore_model(model)
        assert result.findings == [], [f.message for f in result.findings]
        assert set(result.occupied) == set(model.states)
        assert result.states > 1
        assert result.transitions > result.states

    def test_two_core_scope_also_clean(self, protocol):
        model = get_model(get_info(protocol).formal_model)
        result = explore_model(model, ExploreScope(cores=2, addrs=1))
        assert result.findings == []


def _without_syncread_steals(model: FormalModel) -> FormalModel:
    """DeNovoSync0 minus the sync-read registration rules (I->R, V->R)."""
    kept = tuple(
        rule
        for rule in model.rules
        if not (rule.event == "SyncRead" and rule.pre != rule.post)
    )
    assert len(kept) == len(model.rules) - 2
    return replace_rules(model, kept)


class TestMutationsAreCaught:
    def test_conformance_flags_deleted_steal_rules(self):
        # With the sync-read registration rules gone, the model claims a
        # sync read can never install R or downgrade the previous
        # registrant to V — but the implementation does both, so the
        # state-write diff must report forbidden transitions.
        model = _without_syncread_steals(get_model("denovosync0"))
        result = check_protocol(get_info("DeNovoSync0"), model)
        forbidden = [
            f for f in result.findings if f.kind == KIND_FORBIDDEN_TRANSITION
        ]
        assert forbidden, [f.message for f in result.findings]
        assert any(f.details["event"] == "SyncRead" for f in forbidden)
        assert all(f.severity == SEVERITY_ERROR for f in forbidden)

    def test_oracle_diverges_without_steal_rules(self):
        # Replaying real executions against the crippled model: the
        # first sync read from I/V has no enabled rule, which must
        # surface as a model-divergence finding naming the litmus test.
        model = _without_syncread_steals(get_model("denovosync0"))
        findings, stats = replay_corpus(
            "DeNovoSync0", model, bound=0, max_schedules=10
        )
        divergences = [
            f for f in findings if f.kind == KIND_MODEL_DIVERGENCE
        ]
        assert divergences
        assert stats.executions > 0
        first = divergences[0]
        assert first.site.startswith("mc/")
        assert "schedule" in first.details

    @pytest.fixture
    def sync_load_filling(self, tmp_path, monkeypatch):
        """Loads a DeNovoSync0 subclass, from its own ``repro.*`` module,
        whose sync read fills the word in the state spelled ``state`` and
        imports ``names`` from ``repro.mem.l1``."""
        monkeypatch.setattr(conformance, "_MODULE_CACHE", {})

        def load(names: str, state: str) -> type:
            name = f"repro._mutant_{state.replace('.', '_').lower()}"
            path = tmp_path / f"{name.rpartition('.')[2]}.py"
            path.write_text(
                f"from repro.mem.l1 import {names}\n"
                "from repro.noc.messages import SYNCH\n"
                "from repro.protocols.denovosync0 import DeNovoSync0Protocol\n"
                "\n"
                "class Mutant(DeNovoSync0Protocol):\n"
                "    def sync_load(self, core_id, addr):\n"
                "        latency = self._register(\n"
                "            core_id, addr, SYNCH, invalidate_prev=False,\n"
                "            carry_data_back=True,\n"
                "        )\n"
                "        value = self._mem_get(addr, 0)\n"
                f"        self.l1s[core_id].fill_word(addr, value, {state})\n"
                "        return (value, latency, False, False)\n"
            )
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            return module.Mutant

        return load

    @staticmethod
    def _findings(cls: type) -> list[tuple[str, str]]:
        info = dataclasses.replace(get_info("DeNovoSync0"), cls=cls)
        return [(f.kind, f.message) for f in check_protocol(info).findings]

    def test_conformance_reads_a_state_constant_like_the_enum_member(
        self, sync_load_filling
    ):
        # A sync read that fills Valid instead of Registered never writes
        # R, whether the state is a module constant or spelled through
        # the enum: both must report the same finding.
        bare = self._findings(sync_load_filling("VALID", "VALID"))
        spelled = self._findings(sync_load_filling("DeNovoState", "DeNovoState.VALID"))
        assert bare == spelled
        assert [kind for kind, _ in bare] == [KIND_UNHANDLED_TRANSITION]
        assert "SyncRead handlers (sync_load) never write state 'R'" in bare[0][1]
        # The same subclass filling Registered conforms.
        assert self._findings(sync_load_filling("REGISTERED", "REGISTERED")) == []

    @pytest.fixture
    def denovosync_invalidating_victim(self, tmp_path, monkeypatch):
        """A DeNovoSync subclass, from its own ``repro.*`` module, whose
        ``on_registration_stolen`` also moves the victim's copy to
        Invalid after a sync-read steal (the steal itself leaves it
        Valid)."""
        monkeypatch.setattr(conformance, "_MODULE_CACHE", {})
        name = "repro._mutant_denovosync_steal"
        path = tmp_path / "_mutant_denovosync_steal.py"
        path.write_text(
            "from repro.mem.l1 import INVALID\n"
            "from repro.protocols.denovosync import DeNovoSyncProtocol\n"
            "\n"
            "class Mutant(DeNovoSyncProtocol):\n"
            "    def on_registration_stolen(self, victim, addr, by_sync_read):\n"
            "        super().on_registration_stolen(victim, addr, by_sync_read)\n"
            "        if by_sync_read:\n"
            "            self.l1s[victim].downgrade(addr, INVALID)\n"
        )
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module.Mutant

    def test_conformance_catches_a_broken_denovosync_hook(
        self, denovosync_invalidating_victim
    ):
        # DeNovoSync declares DeNovoSync0's model, so its own hook
        # overrides are checked against it: the sync-read paths now write
        # I, which no Load or SyncRead rule permits.
        info = get_info("DeNovoSync")
        assert check_protocol(info).findings == []
        mutant = dataclasses.replace(info, cls=denovosync_invalidating_victim)
        forbidden = {
            f.details["event"]
            for f in check_protocol(mutant).findings
            if f.kind == KIND_FORBIDDEN_TRANSITION and f.details["state"] == "I"
        }
        assert forbidden == {"Load", "SyncRead"}

    def test_explorer_catches_missing_invalidations(self):
        # MESI minus writer-initiated invalidations: a write from I or S
        # leaves the other copies in place, so the SWMR invariant must
        # fail with a replayable trace from the initial state.
        model = get_model("mesi")
        stripped = replace_rules(
            model,
            tuple(
                dataclasses.replace(rule, others=())
                for rule in model.rules
            ),
        )
        result = explore_model(stripped)
        assert not result.ok
        violation = result.findings[0]
        assert violation.kind == KIND_MODEL_INVARIANT
        assert violation.details["invariant"] == "swmr"
        assert violation.details["trace"], "counterexample trace missing"


@pytest.mark.parametrize("protocol", MODELLED)
class TestDivergenceOracle:
    def test_litmus_subset_replays_clean(self, protocol):
        model = get_model(get_info(protocol).formal_model)
        findings, stats = replay_corpus(
            protocol, model, bound=1, max_schedules=60
        )
        assert findings == [], [f.message for f in findings]
        assert stats.executions > 0
        assert stats.events > 0
        assert stats.value_checks > 0
        assert stats.to_dict()["tests"] == stats.tests


@pytest.mark.parametrize("name", sorted(MODELS))
class TestGoldenTla:
    def test_export_matches_golden(self, name):
        model = get_model(name)
        golden = GOLDEN_DIR / f"{module_name(model)}.tla"
        assert golden.exists(), f"missing golden file {golden}"
        expected = golden.read_text(encoding="utf-8")
        assert export_tla(model) == expected, (
            f"TLA+ export for {name} drifted from {golden}; if the model "
            f"change is deliberate, run `denovosync-bench formal` to "
            f"rewrite results/formal/"
        )

    def test_export_is_deterministic(self, name):
        model = get_model(name)
        assert export_tla(model) == export_tla(model)


class TestFormalCells:
    def test_run_cell_end_to_end(self):
        from repro.formal.cells import FormalCell, run_cell

        cell = FormalCell(
            protocol="DeNovoSync0",
            divergence_bound=0,
            divergence_schedules=20,
            litmus=("mp", "sb"),
        )
        outcome = run_cell(cell)
        assert outcome.ok, [f.message for f in outcome.findings]
        assert outcome.model == "denovosync0"
        assert outcome.explore_stats["states"] > 1
        assert outcome.oracle_stats["tests"] == 2
        assert outcome.tla_module == "DENOVOSYNC0"
        assert "MODULE DENOVOSYNC0" in outcome.tla_text
        assert "DeNovoSync0" in outcome.describe()
        assert outcome.describe().endswith("ok")

    def test_unmodelled_protocol_rejected(self):
        from repro.formal.cells import FormalCell, run_cell

        with pytest.raises(ValueError, match="no formal model"):
            run_cell(FormalCell(protocol="Neat"))


class TestCli:
    def test_formal_target_writes_report(self, tmp_path, capsys):
        from repro.harness.cli import main

        report_path = tmp_path / "formal.json"
        tla_dir = tmp_path / "tla"
        code = main(
            [
                "formal",
                "--protocols",
                "DeNovoSync0",
                "--litmus",
                "mp",
                "--divergence-bound",
                "0",
                "--divergence-schedules",
                "20",
                "--formal-out",
                str(report_path),
                "--tla-out",
                str(tla_dir),
                "--jobs",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 protocols verified" in out
        assert report_path.exists()
        assert (tla_dir / "DENOVOSYNC0.tla").exists()

        import json

        report = json.loads(report_path.read_text())
        assert report["clean"] is True
        assert report["errors"] == 0
        assert [c["protocol"] for c in report["cells"]] == ["DeNovoSync0"]

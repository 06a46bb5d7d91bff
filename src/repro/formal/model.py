"""Guarded-action IR for per-word/per-line coherence state machines.

A :class:`FormalModel` describes one protocol as a set of *rules* over
the per-core stable state of a single coherence unit (a cache line for
MESI, a word for the DeNovo family).  Each rule is a guarded action in
the GAL style (arXiv 1803.10323):

* ``event`` — the abstract operation class (``Load``, ``Store``,
  ``SyncRead``, ``SyncWrite``, ``Rmw``, ``Evict``, ``SelfInv``);
* ``pre``/``post`` — the acting core's state before/after;
* ``guard`` — a predicate over the *other* cores' states for the unit
  (``no_other_in`` / ``some_other_in`` a state set);
* ``others`` — the effect on every other core currently in a given
  state (MESI's writer-initiated invalidations, DeNovo's registration
  steals);
* ``writes_value`` / ``reads_memory`` — the data effect, used by the
  explorer's value tracking and the TLA+ export.

Transient states are deliberately absent: the simulator's protocols are
atomic at quiescent points (the mc subsystem only schedules between
visible operations), so the stable-state machine is the right
abstraction level to cross-check them at.

The models are pure data — no lambdas — so the same tables drive the
Python explorer (:mod:`repro.formal.explore`), the static conformance
analyzer (:mod:`repro.formal.conformance`), the divergence oracle
(:mod:`repro.formal.oracle`) and the TLA+ exporter
(:mod:`repro.formal.tla`).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

GUARD_ALWAYS = "always"
GUARD_NO_OTHER_IN = "no_other_in"
GUARD_SOME_OTHER_IN = "some_other_in"

_GUARD_KINDS = (GUARD_ALWAYS, GUARD_NO_OTHER_IN, GUARD_SOME_OTHER_IN)

#: The abstract event vocabulary every model uses.
EVENTS = ("Load", "Store", "SyncRead", "SyncWrite", "Rmw", "Evict", "SelfInv")

INV_AT_MOST_ONE_IN = "at-most-one-in"
INV_EXCLUSIVE_AGAINST = "exclusive-against"
INV_VALUE_COHERENCE = "value-coherence"

_INVARIANT_KINDS = (
    INV_AT_MOST_ONE_IN,
    INV_EXCLUSIVE_AGAINST,
    INV_VALUE_COHERENCE,
)

GRANULARITY_LINE = "line"
GRANULARITY_WORD = "word"


@dataclass(frozen=True)
class Guard:
    """A predicate over the other cores' states for the same unit."""

    kind: str = GUARD_ALWAYS
    states: tuple[str, ...] = ()

    def holds(self, other_states: Iterable[str]) -> bool:
        if self.kind == GUARD_ALWAYS:
            return True
        hit = any(state in self.states for state in other_states)
        if self.kind == GUARD_SOME_OTHER_IN:
            return hit
        return not hit


ALWAYS = Guard()


@dataclass(frozen=True)
class OtherEffect:
    """Applied to every *other* core in state ``when``: it moves to ``to``."""

    when: str
    to: str


@dataclass(frozen=True)
class Rule:
    """One guarded action of the state machine."""

    event: str
    pre: str
    post: str
    guard: Guard = ALWAYS
    others: tuple[OtherEffect, ...] = ()
    writes_value: bool = False
    reads_memory: bool = False
    desc: str = ""

    def label(self) -> str:
        return f"{self.event} {self.pre}->{self.post}"


@dataclass(frozen=True)
class Invariant:
    """One safety property checked over every reachable state.

    ``at-most-one-in``: at most one core may be in ``states``.
    ``exclusive-against``: a core in ``states`` excludes every other
    core from ``other_states``.
    ``value-coherence``: a core in ``states`` holds the current memory
    value (its copy is *clean-readable*).
    """

    name: str
    kind: str
    states: tuple[str, ...]
    other_states: tuple[str, ...] = ()
    desc: str = ""


@dataclass(frozen=True)
class FormalModel:
    """A complete guarded-action model of one protocol.

    ``state_names`` maps implementation enum members to model states
    (``"MODIFIED" -> "M"``); the initial state need not appear (MESI's
    Invalid is the *absence* of an L1 entry).  ``event_handlers`` names
    the implementation entry points per event, ``test_aliases`` maps
    implementation query calls to the states they imply
    (``registered_value`` tests Registered), and ``mutator_aliases``
    maps state-writing calls with no explicit state argument to the
    state they write (``invalidate`` writes Invalid) — all consumed by
    the static conformance analyzer.
    """

    name: str
    protocol: str
    enum_class: str
    states: tuple[str, ...]
    initial: str
    state_names: Mapping[str, str]
    rules: tuple[Rule, ...]
    invariants: tuple[Invariant, ...]
    granularity: str
    event_handlers: Mapping[str, tuple[str, ...]]
    test_aliases: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    mutator_aliases: Mapping[str, str] = field(default_factory=dict)
    events: tuple[str, ...] = EVENTS

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise ValueError(f"{self.name}: initial {self.initial!r} not a state")
        if self.granularity not in (GRANULARITY_LINE, GRANULARITY_WORD):
            raise ValueError(f"{self.name}: bad granularity {self.granularity!r}")
        for rule in self.rules:
            if rule.event not in self.events:
                raise ValueError(f"{self.name}: unknown event in {rule}")
            if rule.pre not in self.states or rule.post not in self.states:
                raise ValueError(f"{self.name}: unknown state in {rule}")
            if rule.guard.kind not in _GUARD_KINDS:
                raise ValueError(f"{self.name}: unknown guard in {rule}")
            for state in rule.guard.states:
                if state not in self.states:
                    raise ValueError(f"{self.name}: unknown guard state in {rule}")
            for effect in rule.others:
                if effect.when not in self.states or effect.to not in self.states:
                    raise ValueError(f"{self.name}: unknown state in {rule}")
        for inv in self.invariants:
            if inv.kind not in _INVARIANT_KINDS:
                raise ValueError(f"{self.name}: unknown invariant kind {inv.kind!r}")
            for state in inv.states + inv.other_states:
                if state not in self.states:
                    raise ValueError(f"{self.name}: unknown state in invariant {inv.name}")
        for member, state in self.state_names.items():
            if state not in self.states:
                raise ValueError(f"{self.name}: {member} maps to unknown state")

    # -- rule queries (shared by every checker) ---------------------------

    def rules_for(self, event: str) -> tuple[Rule, ...]:
        return tuple(rule for rule in self.rules if rule.event == event)

    def expected_writes(self, event: str) -> frozenset[str]:
        """States the implementation *must* be able to write for ``event``:
        every non-identity actor transition target plus every non-identity
        other-core effect target."""
        out: set[str] = set()
        for rule in self.rules_for(event):
            if rule.post != rule.pre:
                out.add(rule.post)
            for effect in rule.others:
                if effect.to != effect.when:
                    out.add(effect.to)
        return frozenset(out)

    def allowed_writes(self, event: str) -> frozenset[str]:
        """States the implementation *may* write for ``event``: every rule
        post state (identities included — refreshing a state the model
        keeps is not a divergence) and every other-core effect target."""
        out: set[str] = set()
        for rule in self.rules_for(event):
            out.add(rule.post)
            for effect in rule.others:
                out.add(effect.to)
        return frozenset(out)

    def rule_reachable_states(self) -> frozenset[str]:
        """States reachable from ``initial`` in the rule graph (actor
        transitions and other-core effects as edges)."""
        edges: dict[str, set[str]] = {state: set() for state in self.states}
        for rule in self.rules:
            edges[rule.pre].add(rule.post)
            for effect in rule.others:
                edges[effect.when].add(effect.to)
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for nxt in edges[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def match_rule(
        self, event: str, pre: str, other_states: Iterable[str]
    ) -> Rule | None:
        """The rule ``event`` fires from ``pre`` given the other cores'
        states, or None when the model forbids the transition."""
        others = tuple(other_states)
        for rule in self.rules_for(event):
            if rule.pre == pre and rule.guard.holds(others):
                return rule
        return None


def replace_rules(model: FormalModel, rules: tuple[Rule, ...]) -> FormalModel:
    """A copy of ``model`` with a different rule table (mutation testing)."""
    return dataclasses.replace(model, rules=rules)


# -- MESI ---------------------------------------------------------------------


def _mesi_read_rules(event: str) -> tuple[Rule, ...]:
    copies = ("S", "E", "M")
    return (
        Rule(event, "I", "E", guard=Guard(GUARD_NO_OTHER_IN, copies),
             reads_memory=True, desc="exclusive-clean grant from the LLC"),
        Rule(event, "I", "S", guard=Guard(GUARD_SOME_OTHER_IN, copies),
             others=(OtherEffect("E", "S"), OtherEffect("M", "S")),
             reads_memory=True,
             desc="shared fill; an exclusive owner downgrades (dirty "
                  "data written back)"),
        Rule(event, "S", "S", desc="read hit"),
        Rule(event, "E", "E", desc="read hit"),
        Rule(event, "M", "M", desc="read hit"),
    )


def _mesi_write_rules(event: str) -> tuple[Rule, ...]:
    invalidate = (
        OtherEffect("S", "I"), OtherEffect("E", "I"), OtherEffect("M", "I"),
    )
    reads = event == "Rmw"
    return (
        Rule(event, "I", "M", others=invalidate, writes_value=True,
             reads_memory=reads,
             desc="write miss; writer-initiated invalidation of every copy"),
        Rule(event, "S", "M", others=invalidate, writes_value=True,
             reads_memory=reads,
             desc="upgrade; invalidate the other sharers"),
        Rule(event, "E", "M", writes_value=True, reads_memory=reads,
             desc="silent E->M upgrade"),
        Rule(event, "M", "M", writes_value=True, reads_memory=reads,
             desc="write hit"),
    )


def _mesi_model() -> FormalModel:
    states = ("I", "S", "E", "M")
    rules = (
        _mesi_read_rules("Load")
        + _mesi_write_rules("Store")
        # MESI has no special synchronization path: sync reads are loads,
        # sync writes are stores (both blocking at the directory).
        + _mesi_read_rules("SyncRead")
        + _mesi_write_rules("SyncWrite")
        + _mesi_write_rules("Rmw")
        + tuple(
            Rule("Evict", state, "I",
                 desc="replacement victim (dirty data written back)")
            for state in ("S", "E", "M")
        )
        + tuple(
            Rule("SelfInv", state, state,
                 desc="no-op: MESI needs no self-invalidation")
            for state in states
        )
    )
    invariants = (
        Invariant(
            "swmr", INV_EXCLUSIVE_AGAINST, states=("E", "M"),
            other_states=("S", "E", "M"),
            desc="single-writer/multiple-reader: an Exclusive or Modified "
                 "copy excludes every other copy of the line",
        ),
        Invariant(
            "data-value", INV_VALUE_COHERENCE, states=("S", "E", "M"),
            desc="every readable copy holds the current memory value "
                 "(writer-initiated invalidations leave no stale copy)",
        ),
    )
    return FormalModel(
        name="mesi",
        protocol="MESI",
        enum_class="MesiState",
        states=states,
        initial="I",
        state_names={"MODIFIED": "M", "EXCLUSIVE": "E", "SHARED": "S"},
        rules=rules,
        invariants=invariants,
        granularity=GRANULARITY_LINE,
        event_handlers={
            "Load": ("load",),
            "Store": ("store",),
            "SyncRead": ("load",),
            "SyncWrite": ("store",),
            "Rmw": ("rmw",),
            "Evict": ("force_evict",),
            "SelfInv": ("self_invalidate",),
        },
        test_aliases={"state_of": ()},
        mutator_aliases={"invalidate": "I"},
    )


# -- DeNovoSync0 --------------------------------------------------------------


def _denovosync0_model() -> FormalModel:
    states = ("I", "V", "R")
    steal_inv = (OtherEffect("R", "I"),)
    steal_val = (OtherEffect("R", "V"),)
    rules = (
        # Data reads: hit on Valid or Registered; a miss fills Valid from
        # the LLC (or the registered owner — same state outcome).
        Rule("Load", "I", "V", reads_memory=True,
             desc="data-read miss fills the word Valid"),
        Rule("Load", "V", "V", desc="data-read hit"),
        Rule("Load", "R", "R", desc="data-read hit on own registration"),
        # Data writes: register immediately (non-blocking); a previous
        # registrant invalidates its copy.
        Rule("Store", "I", "R", others=steal_inv, writes_value=True,
             desc="data-write registration; previous registrant invalidates"),
        Rule("Store", "V", "R", others=steal_inv, writes_value=True,
             desc="data-write registration over a Valid copy"),
        Rule("Store", "R", "R", writes_value=True, desc="data-write hit"),
        # Sync reads register like an RMW, but the previous registrant
        # only downgrades to Valid (paper §4.1: the copy is unusable for
        # sync reads but arms DeNovoSync's backoff trigger).
        Rule("SyncRead", "R", "R",
             desc="sync-read hit: only a Registered copy is usable"),
        Rule("SyncRead", "I", "R", others=steal_val, reads_memory=True,
             desc="sync-read registration; previous registrant -> Valid"),
        Rule("SyncRead", "V", "R", others=steal_val, reads_memory=True,
             desc="sync-read registration (Valid is not usable: re-fetch)"),
        # Sync writes and RMWs steal the registration and invalidate the
        # previous registrant's copy.
        Rule("SyncWrite", "R", "R", writes_value=True, desc="sync-write hit"),
        Rule("SyncWrite", "I", "R", others=steal_inv, writes_value=True,
             desc="sync-write registration; previous registrant invalidates"),
        Rule("SyncWrite", "V", "R", others=steal_inv, writes_value=True,
             desc="sync-write registration over a Valid copy"),
        Rule("Rmw", "R", "R", writes_value=True, reads_memory=True,
             desc="RMW hit on own registration"),
        Rule("Rmw", "I", "R", others=steal_inv, writes_value=True,
             reads_memory=True,
             desc="RMW registration; previous registrant invalidates"),
        Rule("Rmw", "V", "R", others=steal_inv, writes_value=True,
             reads_memory=True, desc="RMW registration over a Valid copy"),
        # Replacement: a Registered victim writes its registration (and
        # value) back to the LLC; Valid words just drop.
        Rule("Evict", "V", "I", desc="replacement victim"),
        Rule("Evict", "R", "I",
             desc="replacement victim: registration returns to the LLC"),
        # Self-invalidation at acquires: Valid words drop, Registered stay.
        Rule("SelfInv", "V", "I",
             desc="acquire self-invalidation drops Valid words"),
        Rule("SelfInv", "R", "R", desc="Registered words survive acquires"),
        Rule("SelfInv", "I", "I", desc="nothing to drop"),
    )
    invariants = (
        Invariant(
            "single-owner-registration", INV_AT_MOST_ONE_IN, states=("R",),
            desc="the LLC registry points at one core: at most one "
                 "Registered copy per word",
        ),
        Invariant(
            "data-value", INV_VALUE_COHERENCE, states=("R",),
            desc="the Registered copy holds the current memory value "
                 "(Valid copies may legitimately be stale until the next "
                 "acquire self-invalidation)",
        ),
    )
    return FormalModel(
        name="denovosync0",
        protocol="DeNovoSync0",
        enum_class="DeNovoState",
        states=states,
        initial="I",
        state_names={"INVALID": "I", "VALID": "V", "REGISTERED": "R"},
        rules=rules,
        invariants=invariants,
        granularity=GRANULARITY_WORD,
        event_handlers={
            "Load": ("load",),
            "Store": ("store",),
            "SyncRead": ("sync_load",),
            "SyncWrite": ("sync_store",),
            "Rmw": ("rmw",),
            "Evict": ("force_evict",),
            "SelfInv": ("self_invalidate",),
        },
        test_aliases={
            "registered_value": ("R",),
            "try_write_registered": ("R",),
            "present_value": ("V", "R"),
            "fill_line_valid": ("I",),
            "state_of": (),
        },
        mutator_aliases={
            "fill_line_valid": "V",
            "invalidate": "I",
            "evict_line": "I",
            "self_invalidate_all": "I",
            "self_invalidate_region": "I",
        },
    )


#: Model key (the registry's ``formal_model`` capability) -> model.
MODELS: dict[str, FormalModel] = {
    model.name: model
    for model in (_mesi_model(), _denovosync0_model())
}


def get_model(name: str) -> FormalModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown formal model {name!r}; expected one of {sorted(MODELS)}"
        ) from None

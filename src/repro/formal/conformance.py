"""Static conformance checking of protocol implementations against models.

The analyzer never runs the protocol.  It parses the implementation
module ASTs (the class and its ``repro.*`` base classes), computes a
*state-write summary* per event handler — every model state the handler
(transitively, through ``self.`` method calls) can install into an L1 —
and diffs that summary against the formal model:

* ``missing-handler`` — the model names an entry point the class lacks;
* ``unhandled-transition`` — a state the model requires the event to be
  able to write never appears in the handler's summary;
* ``forbidden-transition`` — the handler can write a state no rule of
  the event permits;
* ``dead-state`` — a model state unreachable in the model's own rule
  graph (a modelling bug surfaced by the same report).

State writes are recognized through a small vocabulary of L1 mutators
(``set_state``/``insert``/``fill_word``/``downgrade`` with an explicit
state argument, plus the model's ``mutator_aliases`` for calls that
imply a fixed state, like ``invalidate``).  A state argument is spelled
``DeNovoState.VALID`` or as a bare name (``VALID``) that the method's
defining module binds to a member of the model's enum; a bare name is
resolved by value, so every module constant naming a member counts.
Summaries are computed under a constant-binding environment: a call like
``self._register(..., invalidate_prev=False)`` analyzes ``_register``
with that binding, so the ``INVALID if invalidate_prev else VALID``
downgrade target resolves to exactly the state that call site can
write.  The analysis is flow-insensitive everywhere else, which is
sound for this check: summaries over-approximate writes, and the diff
only compares *sets* of writable states per event.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.formal.model import FormalModel, get_model
from repro.sanitize.findings import (
    KIND_DEAD_STATE,
    KIND_FORBIDDEN_TRANSITION,
    KIND_MISSING_HANDLER,
    KIND_UNHANDLED_TRANSITION,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
)

if TYPE_CHECKING:
    from repro.protocols.registry import ProtocolInfo

#: L1-mutator methods that take an explicit state argument, mapped to
#: the argument's positional index (``fill_word(addr, value, state)``).
STATE_ARG_CALLS: dict[str, int] = {
    "set_state": 1,
    "insert": 1,
    "fill_word": 2,
    "downgrade": 1,
}

#: Keyword names the state argument may travel under instead.
STATE_KEYWORDS = ("state", "target")

#: A constant binding: a bool (branch selector) or a set of model states.
Binding = bool | frozenset
Env = dict[str, Binding]


@dataclass
class Summary:
    """What one method (plus its ``self.`` callees) can do to L1 state."""

    writes: set = field(default_factory=set)
    tests: set = field(default_factory=set)
    unresolved: set = field(default_factory=set)

    def merge(self, other: Summary) -> None:
        self.writes |= other.writes
        self.tests |= other.tests
        self.unresolved |= other.unresolved


@dataclass
class ConformanceResult:
    """Outcome of checking one implementation against one model."""

    protocol: str
    model: str
    findings: list = field(default_factory=list)
    coverage: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(f.severity == SEVERITY_ERROR for f in self.findings)


_MODULE_CACHE: dict[str, ast.Module] = {}


def _module_ast(module_name: str) -> ast.Module:
    tree = _MODULE_CACHE.get(module_name)
    if tree is None:
        module = sys.modules[module_name]
        filename = module.__file__
        assert filename is not None, module_name
        with open(filename, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=filename)
        _MODULE_CACHE[module_name] = tree
    return tree


def _methods_of(cls: type) -> dict[str, tuple[ast.FunctionDef, str]]:
    """Method name -> (FunctionDef, defining module) over the class MRO
    (subclass wins), restricted to classes defined in ``repro.*`` modules."""
    methods: dict[str, tuple[ast.FunctionDef, str]] = {}
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro."):
            continue
        for node in _module_ast(klass.__module__).body:
            if not isinstance(node, ast.ClassDef) or node.name != klass.__name__:
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name not in methods:
                    methods[item.name] = (item, klass.__module__)
    return methods


def _state_constants(module_name: str, model: FormalModel) -> dict[str, frozenset]:
    """Global name -> model state, for every global of ``module_name``
    bound to a member of the model's enum (such as the ``VALID`` that
    ``repro.mem.l1`` exports, wherever it is imported)."""
    constants: dict[str, frozenset] = {}
    for name, value in vars(sys.modules[module_name]).items():
        if isinstance(value, Enum) and type(value).__name__ == model.enum_class:
            state = model.state_names.get(value.name)
            if state is not None:
                constants[name] = frozenset((state,))
    return constants


def _own_nodes(fn: ast.FunctionDef):
    """Every node of ``fn``'s body, not descending into nested defs."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _Analyzer:
    """Computes state-write summaries for one (class, model) pair."""

    def __init__(self, cls: type, model: FormalModel) -> None:
        self.model = model
        defined = _methods_of(cls)
        self.methods = {name: fn for name, (fn, _) in defined.items()}
        #: method name -> the state constants of its defining module.
        self._constants = {
            name: _state_constants(module, model)
            for name, (_, module) in defined.items()
        }
        self._memo: dict[tuple, Summary] = {}
        self._in_progress: set = set()

    # -- expression resolution -------------------------------------------

    def _resolve_states(
        self, node: ast.expr, env: Env, local_states: dict
    ) -> frozenset | None:
        """The set of model states ``node`` can evaluate to, or None."""
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == self.model.enum_class:
                state = self.model.state_names.get(node.attr)
                if state is not None:
                    return frozenset((state,))
            return None
        if isinstance(node, ast.Name):
            bound = env.get(node.id)
            if isinstance(bound, frozenset):
                return bound
            return local_states.get(node.id)
        if isinstance(node, ast.IfExp):
            picked = self._resolve_bool(node.test, env)
            if picked is not None:
                branch = node.body if picked else node.orelse
                return self._resolve_states(branch, env, local_states)
            body = self._resolve_states(node.body, env, local_states)
            orelse = self._resolve_states(node.orelse, env, local_states)
            if body is None and orelse is None:
                return None
            return (body or frozenset()) | (orelse or frozenset())
        return None

    def _resolve_bool(self, node: ast.expr, env: Env) -> bool | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, bool):
            return node.value
        if isinstance(node, ast.Name):
            bound = env.get(node.id)
            if isinstance(bound, bool):
                return bound
        return None

    # -- summaries --------------------------------------------------------

    def summarize(self, name: str, env: Env | None = None) -> Summary:
        """The state-write summary of method ``name`` under ``env``."""
        env = env or {}
        key = (name, tuple(sorted(env.items())))
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        if key in self._in_progress:
            return Summary()  # recursion: the fixpoint adds nothing new
        fn = self.methods.get(name)
        if fn is None:
            return Summary()
        self._in_progress.add(key)
        try:
            summary = self._summarize_fn(fn, env)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = summary
        return summary

    def _summarize_fn(self, fn: ast.FunctionDef, env: Env) -> Summary:
        # Pass 1: local name -> states it may hold (flow-insensitive union),
        # starting from the module's state constants.
        constants = self._constants[fn.name]
        local_states: dict = dict(constants)
        for _ in range(2):  # one re-pass settles chained local aliases
            for node in _own_nodes(fn):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                states = self._resolve_states(value, env, local_states)
                if states is None:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        previous = local_states.get(target.id, frozenset())
                        local_states[target.id] = previous | states

        # Pass 2: effects — mutator calls, state tests, self-call closure.
        summary = Summary()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Compare):
                self._collect_compare(node, env, local_states, constants, summary)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            attr = func.attr
            alias = self.model.mutator_aliases.get(attr)
            if alias is not None:
                summary.writes.add(alias)
            tested = self.model.test_aliases.get(attr)
            if tested is not None:
                summary.tests.update(tested)
            if attr in STATE_ARG_CALLS:
                self._collect_state_arg(node, attr, env, local_states, summary)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and attr in self.methods
            ):
                child_env = self._bind_call(node, self.methods[attr], env, local_states)
                summary.merge(self.summarize(attr, child_env))
        return summary

    def _collect_state_arg(
        self,
        node: ast.Call,
        attr: str,
        env: Env,
        local_states: dict,
        summary: Summary,
    ) -> None:
        index = STATE_ARG_CALLS[attr]
        arg: ast.expr | None = None
        if len(node.args) > index and not any(
            isinstance(a, ast.Starred) for a in node.args[: index + 1]
        ):
            arg = node.args[index]
        else:
            for keyword in node.keywords:
                if keyword.arg in STATE_KEYWORDS:
                    arg = keyword.value
                    break
        if arg is None:
            return  # not a state-carrying call form (e.g. list.insert)
        states = self._resolve_states(arg, env, local_states)
        if states is None:
            summary.unresolved.add(f"{attr}() at line {node.lineno}")
            return
        summary.writes.update(states)

    def _collect_compare(
        self,
        node: ast.Compare,
        env: Env,
        local_states: dict,
        constants: dict,
        summary: Summary,
    ) -> None:
        # Only a spelled member is a test: ``DeNovoState.VALID`` or a
        # state constant, not a local that happens to hold a state.
        for side in (node.left, *node.comparators):
            if isinstance(side, ast.Attribute) or (
                isinstance(side, ast.Name) and side.id in constants
            ):
                states = self._resolve_states(side, env, local_states)
                if states is not None:
                    summary.tests.update(states)

    def _bind_call(
        self,
        node: ast.Call,
        callee: ast.FunctionDef,
        env: Env,
        local_states: dict,
    ) -> Env:
        """Constant bindings for a ``self.method(...)`` call's parameters."""
        params = [a.arg for a in callee.args.args[1:]]  # skip self
        child: Env = {}
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break  # positions after a splat are unknowable
            if position >= len(params):
                break
            self._bind_value(child, params[position], arg, env, local_states)
        names = set(params) | {a.arg for a in callee.args.kwonlyargs}
        for keyword in node.keywords:
            if keyword.arg in names:
                self._bind_value(child, keyword.arg, keyword.value, env, local_states)
        return child

    def _bind_value(
        self,
        child: Env,
        name: str,
        value: ast.expr,
        env: Env,
        local_states: dict,
    ) -> None:
        boolean = self._resolve_bool(value, env)
        if boolean is not None:
            child[name] = boolean
            return
        states = self._resolve_states(value, env, local_states)
        if states is not None:
            child[name] = states


def check_protocol(
    info: ProtocolInfo, model: FormalModel | None = None
) -> ConformanceResult:
    """Statically check ``info``'s implementation against its model."""
    if model is None:
        assert info.formal_model is not None, f"{info.name} declares no model"
        model = get_model(info.formal_model)
    cls = info.cls
    assert cls is not None, f"{info.name} registered without a class"
    analyzer = _Analyzer(cls, model)
    result = ConformanceResult(protocol=info.name, model=model.name)
    site = f"{cls.__module__}.{cls.__name__}"

    for event in model.events:
        handlers = model.event_handlers.get(event, ())
        summary = Summary()
        for handler in handlers:
            if handler not in analyzer.methods:
                result.findings.append(
                    Finding(
                        kind=KIND_MISSING_HANDLER,
                        severity=SEVERITY_ERROR,
                        message=(
                            f"{info.name}: model event {event} expects handler "
                            f"{handler}(), which the implementation lacks"
                        ),
                        site=site,
                        details={"event": event, "handler": handler},
                    )
                )
                continue
            summary.merge(analyzer.summarize(handler))

        expected = model.expected_writes(event)
        allowed = model.allowed_writes(event)
        for state in sorted(expected - summary.writes):
            rules = [
                rule.label()
                for rule in model.rules_for(event)
                if rule.post == state
                or any(e.to == state and e.to != e.when for e in rule.others)
            ]
            result.findings.append(
                Finding(
                    kind=KIND_UNHANDLED_TRANSITION,
                    severity=SEVERITY_ERROR,
                    message=(
                        f"{info.name}: {event} handlers "
                        f"({', '.join(handlers)}) never write state "
                        f"{state!r}, required by {'; '.join(rules)}"
                    ),
                    site=site,
                    details={"event": event, "state": state, "rules": rules},
                )
            )
        for state in sorted(summary.writes - allowed):
            result.findings.append(
                Finding(
                    kind=KIND_FORBIDDEN_TRANSITION,
                    severity=SEVERITY_ERROR,
                    message=(
                        f"{info.name}: {event} handlers "
                        f"({', '.join(handlers)}) can write state {state!r}, "
                        f"which no {event} rule of model {model.name} permits"
                    ),
                    site=site,
                    details={
                        "event": event,
                        "state": state,
                        "allowed": sorted(allowed),
                    },
                )
            )
        for unresolved in sorted(summary.unresolved):
            result.findings.append(
                Finding(
                    kind=KIND_UNHANDLED_TRANSITION,
                    severity=SEVERITY_WARNING,
                    message=(
                        f"{info.name}: {event}: could not resolve the state "
                        f"argument of {unresolved} (summary may be incomplete)"
                    ),
                    site=site,
                    details={"event": event, "call": unresolved},
                )
            )
        result.coverage[event] = {
            "handlers": list(handlers),
            "writes": sorted(summary.writes),
            "tests": sorted(summary.tests),
            "expected": sorted(expected),
            "allowed": sorted(allowed),
        }

    reachable = model.rule_reachable_states()
    for state in model.states:
        if state not in reachable:
            result.findings.append(
                Finding(
                    kind=KIND_DEAD_STATE,
                    severity=SEVERITY_ERROR,
                    message=(
                        f"model {model.name}: state {state!r} is unreachable "
                        f"in the rule graph from {model.initial!r}"
                    ),
                    site=f"formal/{model.name}",
                    details={"model": model.name, "state": state},
                )
            )
    return result

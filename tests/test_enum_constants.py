"""Simulation code spells enum members by their module constants.

``MesiState``, ``DeNovoState``, ``MessageClass`` and ``TimeComponent``
export their members right after the class (``VALID`` in ``mem/l1.py``,
``SYNCH`` in ``noc/messages.py``, ...).  On CPython 3.11 an
``Enum.MEMBER`` load is never specialized, because ``EnumType`` defines
``__getattr__``; it costs about 120 ns against 20 ns for a global, and
cProfile charges it to the caller's own time, so no profile names it.
This test keeps the slow spelling out of every function body of the
packages that run per simulated access.  Module-level code (class
bodies, defaults) and the Enum API (iteration, ``.value``) are fine.
"""

from __future__ import annotations

import ast
import enum
import importlib
from pathlib import Path

import pytest

import repro

SIMULATION_PACKAGES = ("cpu", "protocols", "mem", "noc", "sim", "stats", "workloads", "synclib")

ROOT = Path(repro.__file__).resolve().parent


def _modules():
    for package in SIMULATION_PACKAGES:
        for path in sorted((ROOT / package).rglob("*.py")):
            parts = path.relative_to(ROOT).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            yield path, ".".join(("repro", *parts))


def _resolve(node: ast.expr, namespace: dict):
    """The object a dotted name (``DeNovoState``, ``l1.DeNovoState``)
    refers to in a module's globals, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def enum_member_loads(tree: ast.Module, namespace: dict) -> list[str]:
    """``line: Enum.MEMBER`` for each member load through an ``Enum``
    class inside a function body (decorators and defaults excluded:
    they run once, at definition)."""
    sites: list[str] = []

    def visit(node: ast.AST, in_body: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                body = child in node.body if isinstance(node.body, list) else child is node.body
                visit(child, in_body or body)
            return
        if in_body and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = _resolve(node.value, namespace)
            if (
                isinstance(owner, type)
                and issubclass(owner, enum.Enum)
                and node.attr in owner.__members__
            ):
                sites.append(f"{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, in_body)

    visit(tree, False)
    return sites


@pytest.mark.parametrize(
    "path,module", [pytest.param(path, module, id=module) for path, module in _modules()]
)
def test_no_enum_member_load_in_a_function_body(path, module):
    namespace = vars(importlib.import_module(module))
    sites = enum_member_loads(ast.parse(path.read_text(), filename=str(path)), namespace)
    assert not sites, (
        f"{module} loads enum members through the class in a function body; "
        f"import the module constant instead: {sites}"
    )


def test_the_check_sees_the_slow_spelling():
    from repro.mem import l1

    source = (
        "def f(state):\n"
        "    return state is DeNovoState.VALID or state is l1.MesiState.SHARED\n"
        "def g(state=DeNovoState.VALID):\n"
        "    return state is VALID and DeNovoState.VALID.value\n"
    )
    namespace = {"DeNovoState": l1.DeNovoState, "VALID": l1.VALID, "l1": l1}
    assert enum_member_loads(ast.parse(source), namespace) == [
        "2: DeNovoState.VALID",
        "2: l1.MesiState.SHARED",
        "4: DeNovoState.VALID",
    ]


def test_the_constants_are_the_members():
    from repro.mem.l1 import REGISTERED, SHARED, DeNovoState, MesiState
    from repro.noc.messages import INVALIDATION, MessageClass
    from repro.stats.timeparts import BARRIER_STALL, TimeComponent

    assert REGISTERED is DeNovoState.REGISTERED
    assert SHARED is MesiState.SHARED
    assert INVALIDATION is MessageClass.INVALIDATION
    assert BARRIER_STALL is TimeComponent.BARRIER_STALL

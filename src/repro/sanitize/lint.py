"""Static-mode sanitizer: an AST lint pass enforcing simulator idioms.

Thread programs are Python generators yielding ISA ops, which makes a
class of bugs invisible to the runtime: a yielded op whose result the
kernel needed but discarded still *runs*, it just computes garbage (or
only works by luck).  This pass walks every function of the target
sources and enforces:

``discarded-result`` (error)
    A bare ``yield Cas(...)`` / ``yield Fai(...)`` / ``yield Swap(...)``
    statement discards the op's result.  Helping CASes and broadcast
    bumps legitimately ignore it — write ``_ = yield Cas(...)`` to make
    the discard explicit; the lint sanctions the ``_`` binding.
``cas-success-unchecked`` (error)
    The result of a ``yield Cas(...)`` is bound to a name that is never
    read again, so the CAS's success is never checked (bind to ``_``
    for an intentional fire-and-forget CAS).
``waitload-not-sync`` (error)
    ``WaitLoad(..., sync=False)``: a spin-wait is a racy read by
    definition and must be annotated as synchronization.
``unbalanced-buckets`` (error)
    A function yields a different number of ``PushBucket`` and
    ``PopBucket`` ops, corrupting the cycle-accounting stack.
``release-on-data-store`` (error)
    ``Store(..., release=True)`` without ``sync=True``: release
    semantics only exist on synchronization stores.
``raw-address`` (error)
    A literal integer address passed to a memory op instead of an
    address derived from a :class:`~repro.mem.regions.RegionAllocator`
    allocation (literal addresses bypass region tracking, so DeNovo
    self-invalidation cannot cover them).
``waitload-result-discarded`` (warning)
    A bare ``yield WaitLoad(...)`` whose predicate does not pin the
    value with an equality test discards information (the observed
    value is not implied by the predicate passing).  Non-gating.
``unordered-iteration`` (error, simulator sources only)
    A ``for`` loop or order-sensitive comprehension iterates a provably
    set-typed expression without ``sorted(...)``.  Set iteration order
    is a function of element hashes and insertion history, so any
    simulator event sequence derived from it (invalidation fan-out,
    eviction victims, drain order) silently depends on it; the fix —
    ``sorted(...)`` — pins the order.  Order-insensitive consumers
    (``sum``/``min``/``max``/``any``/``all``/``set``/``frozenset``/
    ``sorted`` over a comprehension, or building another set) are not
    flagged.  This rule runs over the simulator sources
    (:func:`simulator_lint_targets`), not the kernel corpus.

The three yield-site rules (``discarded-result``,
``cas-success-unchecked``, ``waitload-result-discarded``) also see a
prebuilt op: ``yield self.<name>`` resolves to the op the class's
``__init__`` assigns as ``self.<name> = Op(...)``, and
``yield self.<name>[...]`` to one assigned as a list comprehension of
such an op.
"""

from __future__ import annotations

import ast
from pathlib import Path
from collections.abc import Iterable

from repro.sanitize.findings import (
    KIND_CAS_UNCHECKED,
    KIND_DISCARDED_RESULT,
    KIND_RAW_ADDRESS,
    KIND_RELEASE_ON_DATA_STORE,
    KIND_UNBALANCED_BUCKETS,
    KIND_UNORDERED_ITERATION,
    KIND_WAITLOAD_NOT_SYNC,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
)

KIND_WAITLOAD_DISCARDED = "waitload-result-discarded"

#: The kernel-corpus rules (generator-program idioms).
KERNEL_RULES = frozenset(
    {
        KIND_DISCARDED_RESULT,
        KIND_CAS_UNCHECKED,
        KIND_WAITLOAD_NOT_SYNC,
        KIND_UNBALANCED_BUCKETS,
        KIND_RELEASE_ON_DATA_STORE,
        KIND_RAW_ADDRESS,
        KIND_WAITLOAD_DISCARDED,
    }
)
#: The simulator-source rules (determinism idioms).
SIMULATOR_RULES = frozenset({KIND_UNORDERED_ITERATION})

#: Ops whose result carries information the program normally needs.
RESULT_OPS = {"Cas", "Fai", "Swap"}
#: Ops taking an address as their first positional argument.
ADDRESS_OPS = {"Load", "Store", "Cas", "Fai", "Swap", "WaitLoad"}


def _call_op(node: ast.AST) -> tuple[str, ast.Call] | None:
    """(op name, call) when ``node`` is a call of a known ISA op."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return None
    if name in ADDRESS_OPS or name in ("PushBucket", "PopBucket"):
        return name, node
    return None


def _yielded_call(node: ast.AST, prebuilt: dict) -> tuple[str, ast.Call] | None:
    """(op name, call) when ``node`` is a ``yield <ISA op>(...)``, or a
    ``yield self.<name>`` / ``yield self.<name>[...]`` of an op in
    ``prebuilt`` (see :func:`_prebuilt_ops`)."""
    if not isinstance(node, ast.Yield) or node.value is None:
        return None
    value = node.value
    indexed = isinstance(value, ast.Subscript)
    if indexed:
        value = value.value
    if isinstance(value, ast.Attribute) and _is_self(value.value):
        found = prebuilt.get(value.attr)
        if found is not None and found[2] == indexed:
            return found[0], found[1]
        return None
    return None if indexed else _call_op(value)


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _prebuilt_ops(cls: ast.ClassDef) -> dict[str, tuple[str, ast.Call, bool]]:
    """``name -> (op name, call, indexed)`` for each ISA op the class's
    ``__init__`` assigns to ``self.<name>``: directly (``indexed`` False)
    or as a list comprehension of one (``indexed`` True)."""
    ops: dict[str, tuple[str, ast.Call, bool]] = {}
    for method in cls.body:
        if not (isinstance(method, ast.FunctionDef) and method.name == "__init__"):
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            indexed = isinstance(value, ast.ListComp)
            found = _call_op(value.elt if indexed else value)
            if found is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) and _is_self(target.value):
                    ops[target.attr] = (found[0], found[1], indexed)
    return ops


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _is_literal(node: ast.expr | None, value) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def _predicate_pins_value(call: ast.Call) -> bool:
    """True when the WaitLoad predicate is ``lambda v, ...: v == <expr>``
    (the passing value is implied, so discarding the result loses
    nothing)."""
    pred = call.args[1] if len(call.args) > 1 else _keyword(call, "pred")
    if not isinstance(pred, ast.Lambda):
        return False
    body = pred.body
    if not isinstance(body, ast.Compare) or len(body.ops) != 1:
        return False
    if not isinstance(body.ops[0], ast.Eq):
        return False
    args = pred.args.args
    if not args:
        return False
    value_arg = args[0].arg
    return isinstance(body.left, ast.Name) and body.left.id == value_arg


class _FunctionLinter:
    """Lints one function body (nested defs are linted separately).

    ``prebuilt`` holds the ops of the enclosing class's ``__init__``
    (:func:`_prebuilt_ops`)."""

    def __init__(
        self, path: str, func: ast.AST, findings: list[Finding], prebuilt: dict
    ):
        self.path = path
        self.func = func
        self.findings = findings
        self.prebuilt = prebuilt

    def _emit(self, kind: str, severity: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(
            Finding(
                kind=kind,
                severity=severity,
                message=message,
                site=f"{self.path}:{line}",
                details={"file": self.path, "line": line,
                         "function": getattr(self.func, "name", "<module>")},
            )
        )

    def run(self) -> None:
        pushes = 0
        pops = 0
        cas_bindings: dict[str, ast.AST] = {}
        read_names: set[str] = set()

        for node in self._own_nodes():
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read_names.add(node.id)

            yielded = None
            if isinstance(node, ast.Expr):
                yielded = _yielded_call(node.value, self.prebuilt)
                if yielded is not None:
                    name, call = yielded
                    if name in RESULT_OPS:
                        self._emit(
                            KIND_DISCARDED_RESULT, SEVERITY_ERROR, node,
                            f"result of yielded {name} is discarded; bind it "
                            "(or use '_ = yield ...' for an intentional "
                            "discard)",
                        )
                    elif name == "WaitLoad" and not _predicate_pins_value(call):
                        self._emit(
                            KIND_WAITLOAD_DISCARDED, SEVERITY_WARNING, node,
                            "WaitLoad result discarded and its predicate does "
                            "not pin the value with an equality test",
                        )
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                yielded = _yielded_call(node.value, self.prebuilt)
                if (
                    yielded is not None
                    and yielded[0] == "Cas"
                    and isinstance(target, ast.Name)
                    and target.id != "_"
                ):
                    cas_bindings[target.id] = node

            call_info = _call_op(node)
            if call_info is None:
                continue
            name, call = call_info
            if name == "PushBucket":
                pushes += 1
            elif name == "PopBucket":
                pops += 1
            if name == "WaitLoad" and _is_literal(_keyword(call, "sync"), False):
                self._emit(
                    KIND_WAITLOAD_NOT_SYNC, SEVERITY_ERROR, node,
                    "WaitLoad(sync=False): a spin-wait is racy by definition "
                    "and must be a synchronization access",
                )
            if (
                name == "Store"
                and _is_literal(_keyword(call, "release"), True)
                and not _is_literal(_keyword(call, "sync"), True)
            ):
                self._emit(
                    KIND_RELEASE_ON_DATA_STORE, SEVERITY_ERROR, node,
                    "Store(release=True) without sync=True: release "
                    "semantics only exist on synchronization stores",
                )
            if name in ADDRESS_OPS:
                addr = call.args[0] if call.args else _keyword(call, "addr")
                if isinstance(addr, ast.Constant) and isinstance(addr.value, int):
                    self._emit(
                        KIND_RAW_ADDRESS, SEVERITY_ERROR, node,
                        f"{name} of literal address {addr.value}: addresses "
                        "must come from a RegionAllocator allocation so "
                        "region-based self-invalidation can cover them",
                    )

        for bound, node in cas_bindings.items():
            # One read suffices: the binding itself is a Store-ctx Name.
            if bound not in read_names:
                self._emit(
                    KIND_CAS_UNCHECKED, SEVERITY_ERROR, node,
                    f"Cas result bound to {bound!r} but never read: the "
                    "CAS's success is never checked",
                )

        if pushes != pops and (pushes or pops):
            self._emit(
                KIND_UNBALANCED_BUCKETS, SEVERITY_ERROR, self.func,
                f"{pushes} PushBucket vs {pops} PopBucket yields in "
                f"{getattr(self.func, 'name', '<module>')!r}: the "
                "cycle-accounting stack would be corrupted",
            )

    def _own_nodes(self):
        return _own_nodes(self.func)


#: Functions whose set-typed result keeps the unordered nature explicit.
_SET_MAKERS = {"set", "frozenset"}
#: Set methods returning another set.
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
#: Callables whose result does not depend on argument iteration order.
_ORDER_INSENSITIVE = {
    "sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted",
}


class _OrderLinter:
    """Flags iteration over provably set-typed expressions in one function.

    Set-typedness is decided purely locally: set displays/comprehensions,
    ``set()``/``frozenset()`` calls, set operators with a provably-set
    operand (``sharers - {core}`` is a set whatever ``sharers`` is — the
    operator would raise otherwise), set-returning methods on a provable
    receiver, and names assigned from any of those in the same function.
    """

    def __init__(self, path: str, func: ast.AST, findings: list[Finding]):
        self.path = path
        self.func = func
        self.findings = findings
        self.set_names: set[str] = set()

    def run(self) -> None:
        nodes = list(_own_nodes(self.func))
        # Pass 1 (twice, for chained aliases): names assigned set-typed
        # expressions anywhere in the function.
        for _ in range(2):
            for node in nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and self._is_set(node.value):
                        self.set_names.add(target.id)
        parents = {
            id(child): node
            for node in nodes
            for child in ast.iter_child_nodes(node)
        }
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iter(node.iter, node)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if self._order_insensitive_context(node, parents):
                    continue
                for comp in node.generators:
                    self._check_iter(comp.iter, node)

    def _order_insensitive_context(self, node: ast.AST, parents: dict) -> bool:
        parent = parents.get(id(node))
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
            and parent.args
            and parent.args[0] is node
        )

    def _check_iter(self, iter_expr: ast.expr, node: ast.AST) -> None:
        if not self._is_set(iter_expr):
            return
        line = getattr(node, "lineno", 0)
        self.findings.append(
            Finding(
                kind=KIND_UNORDERED_ITERATION,
                severity=SEVERITY_ERROR,
                message=(
                    "iteration over a set: the visit order depends on "
                    "element hashes and insertion history, so any event "
                    "sequence derived from it is nondeterministic — wrap "
                    "the iterable in sorted(...)"
                ),
                site=f"{self.path}:{line}",
                details={"file": self.path, "line": line,
                         "function": getattr(self.func, "name", "<module>")},
            )
        )

    def _is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            return self._is_set(node.left) or self._is_set(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_MAKERS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set(func.value)
            ):
                return True
        return False


def _own_nodes(func: ast.AST):
    """Walk a function's body without descending into nested defs
    (lambdas are kept: predicates live there)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def lint_source(
    source: str,
    path: str = "<string>",
    rules: frozenset | None = None,
) -> list[Finding]:
    """Lint one module's source text; returns its findings.

    ``rules`` restricts which finding kinds run (default: the kernel
    rules, preserving the historical behavior of this entry point).
    """
    rules = KERNEL_RULES if rules is None else rules
    findings: list[Finding] = []
    tree = ast.parse(source, filename=path)
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    scopes = functions + [tree]  # module-level code participates too
    # Each function sees the prebuilt ops of its innermost enclosing
    # class (ast.walk visits outer classes first).
    prebuilt_of: dict[int, dict] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            ops = _prebuilt_ops(node)
            for inner in ast.walk(node):
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    prebuilt_of[id(inner)] = ops
    for scope in scopes:
        if rules & KERNEL_RULES:
            _FunctionLinter(path, scope, findings, prebuilt_of.get(id(scope), {})).run()
        if KIND_UNORDERED_ITERATION in rules:
            _OrderLinter(path, scope, findings).run()
    return [f for f in findings if f.kind in rules]


def _display_path(path: Path) -> str:
    """Path as reported in findings and the JSON report: relative to the
    working directory when possible, so committed reports don't embed the
    absolute checkout location."""
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def lint_paths(
    paths: Iterable, rules: frozenset | None = None
) -> tuple[list[Finding], list[str]]:
    """Lint every file; returns (findings, files linted)."""
    findings: list[Finding] = []
    linted: list[str] = []
    for path in paths:
        path = Path(path)
        display = _display_path(path)
        findings.extend(lint_source(path.read_text(), display, rules=rules))
        linted.append(display)
    return findings, linted


def default_lint_targets() -> list[Path]:
    """The shipped lint corpus: every module under ``repro.synclib`` and
    ``repro.workloads``."""
    import repro

    root = Path(repro.__file__).resolve().parent
    targets: list[Path] = []
    for package in ("synclib", "workloads"):
        targets.extend(sorted((root / package).glob("*.py")))
    return targets


def simulator_lint_targets() -> list[Path]:
    """The determinism-rule corpus: every module of the simulator core —
    the packages whose iteration order can reach the event sequence."""
    import repro

    root = Path(repro.__file__).resolve().parent
    targets: list[Path] = []
    for package in ("sim", "protocols", "mem", "noc", "mc"):
        targets.extend(sorted((root / package).glob("*.py")))
    return targets

"""Protocol plugin registry.

Every coherence backend registers itself at import time with a
:class:`ProtocolInfo` capability descriptor via the
:func:`register_protocol` class decorator.  Everything downstream — the
CLI's ``--protocols`` choices and help text, the figure-sweep defaults
in :mod:`repro.harness.experiments`, the chaos differential's protocol
set, the model checker and sanitizer defaults, figure labels in the
report/plot layers — derives its protocol lists from here, filtered by
capability, so landing a new backend is a one-file change: write the
protocol module, decorate the class, import it from
``repro/protocols/__init__.py``.

The capability schema (one :class:`ProtocolInfo` per backend):

``name``
    Canonical paper name, the key used everywhere (``"MESI"``,
    ``"DeNovoSync"``, ``"Neat"``, ...).
``label``
    Short figure/column label (``"M"``, ``"DS"``, ...).
``paper``
    Which paper/design the backend models, for docs and the
    ``protocols`` CLI target.
``summary``
    One-line description of the design point.
``tracking``
    How the backend tracks copies: ``"directory"`` (line-granularity
    sharer lists), ``"registry"`` (DeNovo's word-granularity registered
    owner at the LLC), or ``"dirty-set"`` (no global tracking at all —
    Neat's per-L1 dirty/touched sets).
``invalidation``
    ``"writer"`` for writer-initiated invalidations, ``"self"`` for
    reader self-invalidation at acquires.
``backoff``
    Sync-read retry policy: ``"none"`` or ``"adaptive"`` (DeNovoSync's
    per-(core, word) hardware backoff).
``requires_annotations``
    Whether the backend needs acquire/release/self-invalidate
    annotations to be correct (every self-invalidation design does).
``default_comparison``
    Member of the headline comparison set (figure sweeps, mc, chaos).
``app_comparison``
    Member of the smaller app-figure set (fig6-style sweeps).
``formal_model``
    Key of the guarded-action model in :data:`repro.formal.model.MODELS`
    describing this backend's stable state machine, or None.  Protocols
    that declare one are checked by the ``formal`` CLI target: static
    conformance of the implementation AST, small-scope exploration of
    the model, TLA+ export and the litmus divergence oracle.

Import-order note: this module must not import any protocol module
(the decorators live *in* those modules); ``repro/protocols/__init__``
imports every backend so registration happens as a side effect of
importing the package.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator


@dataclass(frozen=True)
class ProtocolInfo:
    """Capability descriptor one backend registers with."""

    name: str
    label: str
    paper: str
    summary: str
    tracking: str              # "directory" | "registry" | "dirty-set"
    invalidation: str          # "writer" | "self"
    backoff: str = "none"      # "none" | "adaptive"
    requires_annotations: bool = False
    default_comparison: bool = False
    app_comparison: bool = False
    formal_model: str | None = None
    cls: type | None = field(default=None, compare=False)


_TRACKING = {"directory", "registry", "dirty-set"}
_INVALIDATION = {"writer", "self"}
_BACKOFF = {"none", "adaptive"}

#: Registration-ordered ``name -> ProtocolInfo``.  Order matters: the
#: first ``default_comparison`` entry (MESI) is the figure baseline.
_REGISTRY: dict[str, ProtocolInfo] = {}


def register_protocol(**capabilities) -> Callable[[type], type]:
    """Class decorator: register a protocol backend with its capabilities.

    Usage::

        @register_protocol(
            name="Neat", label="Neat", paper="...", summary="...",
            tracking="dirty-set", invalidation="self",
            requires_annotations=True, default_comparison=True,
        )
        class NeatProtocol(CoherenceProtocol): ...
    """

    def _register(cls: type) -> type:
        info = ProtocolInfo(cls=cls, **capabilities)
        if info.tracking not in _TRACKING:
            raise ValueError(
                f"{info.name}: tracking must be one of {sorted(_TRACKING)}"
            )
        if info.invalidation not in _INVALIDATION:
            raise ValueError(
                f"{info.name}: invalidation must be one of "
                f"{sorted(_INVALIDATION)}"
            )
        if info.backoff not in _BACKOFF:
            raise ValueError(
                f"{info.name}: backoff must be one of {sorted(_BACKOFF)}"
            )
        if info.name in _REGISTRY and _REGISTRY[info.name].cls is not cls:
            raise ValueError(f"protocol {info.name!r} registered twice")
        _REGISTRY[info.name] = info
        return cls

    return _register


def iter_protocols() -> Iterator[ProtocolInfo]:
    """All registered backends, in registration order."""
    return iter(_REGISTRY.values())


def protocol_names() -> tuple[str, ...]:
    """Every registered protocol name, in registration order."""
    return tuple(_REGISTRY)


def unknown_protocol_error(name: str) -> ValueError:
    """A ``ValueError`` for an unknown name, with near-miss suggestions."""
    known = list(_REGISTRY)
    message = f"unknown protocol {name!r}; expected one of {sorted(known)}"
    by_fold = {k.casefold(): k for k in known}
    suggestions = []
    folded = by_fold.get(str(name).casefold())
    if folded is not None:
        suggestions = [folded]
    else:
        suggestions = difflib.get_close_matches(
            str(name), known, n=2, cutoff=0.6
        )
    if suggestions:
        message += "; did you mean " + " or ".join(
            repr(s) for s in suggestions
        ) + "?"
    return ValueError(message)


def get_info(name: str) -> ProtocolInfo:
    """The :class:`ProtocolInfo` registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise unknown_protocol_error(name) from None


def protocols_with(**capabilities) -> tuple[str, ...]:
    """Names of backends whose descriptor matches every given field.

    ``protocols_with(invalidation="self", backoff="none")`` returns
    the self-invalidation protocols without hardware backoff.
    Unknown field names raise (they would silently match nothing).
    """
    for key in capabilities:
        if key not in ProtocolInfo.__dataclass_fields__:
            raise TypeError(f"ProtocolInfo has no capability field {key!r}")
    return tuple(
        info.name
        for info in _REGISTRY.values()
        if all(
            getattr(info, key) == value
            for key, value in capabilities.items()
        )
    )


# -- capability-derived comparison sets ---------------------------------------


def default_comparison_set() -> tuple[str, ...]:
    """The headline comparison set (kernel figures, mc, submit)."""
    return protocols_with(default_comparison=True)


def app_comparison_set() -> tuple[str, ...]:
    """The app-figure comparison set (fig6-style sweeps)."""
    return protocols_with(app_comparison=True)


def sanitize_comparison_set() -> tuple[str, ...]:
    """Sanitizer sweep set: the stale-read oracle only makes sense for
    protocols that rely on reader self-invalidation."""
    return protocols_with(invalidation="self")


def formal_model_set() -> tuple[str, ...]:
    """Backends with a formal model attached (the ``formal`` target set)."""
    return tuple(
        info.name for info in _REGISTRY.values() if info.formal_model
    )


# -- presentation -------------------------------------------------------------


def registry_table() -> str:
    """The registry as an aligned text table (the ``protocols`` target)."""
    headers = (
        "protocol", "label", "tracking", "invalidation", "backoff",
        "annotations", "sets", "formal", "paper",
    )
    rows = []
    for info in _REGISTRY.values():
        sets = ",".join(
            tag
            for tag, member in (
                ("default", info.default_comparison),
                ("app", info.app_comparison),
            )
            if member
        ) or "-"
        rows.append((
            info.name, info.label, info.tracking, info.invalidation,
            info.backoff,
            "required" if info.requires_annotations else "optional",
            sets, info.formal_model or "-", info.paper,
        ))
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(line.rstrip() for line in lines)


def registry_markdown_table() -> str:
    """The registry as a Markdown table.

    This exact block is embedded in ``README.md`` and
    ``docs/architecture.md``; CI regenerates it and asserts the docs
    still contain it (``protocols --check-doc``), so the table can never
    drift from the code.
    """
    lines = [
        "| protocol | label | tracking | invalidation | backoff "
        "| annotations | comparison sets | formal model | models |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for info in _REGISTRY.values():
        sets = ", ".join(
            tag
            for tag, member in (
                ("default", info.default_comparison),
                ("app", info.app_comparison),
            )
            if member
        ) or "—"
        formal = f"`{info.formal_model}`" if info.formal_model else "—"
        lines.append(
            f"| `{info.name}` | {info.label} | {info.tracking} "
            f"| {info.invalidation} | {info.backoff} "
            f"| {'required' if info.requires_annotations else 'optional'} "
            f"| {sets} | {formal} | {info.paper} |"
        )
    return "\n".join(lines)


__all__ = [
    "ProtocolInfo",
    "register_protocol",
    "iter_protocols",
    "protocol_names",
    "get_info",
    "protocols_with",
    "unknown_protocol_error",
    "default_comparison_set",
    "app_comparison_set",
    "sanitize_comparison_set",
    "formal_model_set",
    "registry_table",
    "registry_markdown_table",
]

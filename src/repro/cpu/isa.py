"""Operations a simulated thread can yield to its core.

Thread programs are Python generators.  Each ``yield op`` hands the core
one operation; the core applies it to the coherence protocol, stalls for
the computed latency, and resumes the generator with the operation's
result (the loaded value, or the old value for read-modify-writes).

The RMW flavours (:class:`Cas`, :class:`Fai`, :class:`Swap`) are always
synchronization accesses, and each is the ``fn`` the core hands to the
protocol's ``rmw``: ``op(old)`` returns the value to write (None leaves
memory unchanged).  :class:`WaitLoad` is the spin-wait primitive:
semantically a loop of (sync) loads until a predicate holds, which the
core executes protocol-appropriately — sleeping on the cached copy until
invalidated under MESI, re-registering (with hardware backoff) under the
DeNovo protocols.

Ops are plain slotted records, not frozen ones: most ops a thread yields
are constructed on the hot path, and a frozen dataclass's ``__init__``
sets each field through ``object.__setattr__``, which made construction
2–4× slower.  Freezing would buy nothing, because nothing mutates or
hashes an op once it is yielded; ops are unhashable.

Nothing may mutate a yielded op: the core, the protocol wrappers and
the tracers only read its fields.  :mod:`repro.synclib` relies on this:
its TATAS and array locks and its non-blocking structures build each op
whose fields never change once and yield the same object from every
thread and attempt (an op whose address or operands change per attempt
is built at its yield), so a write to one op's field would reach every
thread that later yields it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.mem.regions import Region
from repro.stats.timeparts import TimeComponent


@dataclass(slots=True)
class Compute:
    """Spend ``cycles`` cycles of local work, charged to ``component``."""

    cycles: int
    component: TimeComponent = TimeComponent.COMPUTE


@dataclass(slots=True)
class Load:
    """Read a word; returns its value.

    ``acquire`` marks acquire semantics: under signature-based data
    consistency (see :mod:`repro.protocols.signatures`) the acquiring
    core receives the write signature attached to this synchronization
    variable and self-invalidates exactly those words."""

    addr: int
    sync: bool = False
    acquire: bool = False


@dataclass(slots=True)
class Store:
    """Write a word.  Data stores are non-blocking; sync stores block.

    ``release`` marks release semantics (resets the DeNovoSync increment
    counter)."""

    addr: int
    value: int
    sync: bool = False
    release: bool = False


@dataclass(slots=True)
class Cas:
    """Compare-and-swap; returns the old value (success iff old == expected)."""

    addr: int
    expected: int
    new: int
    release: bool = False
    acquire: bool = False

    def __call__(self, old: int) -> int | None:
        return self.new if old == self.expected else None


@dataclass(slots=True)
class Fai:
    """Fetch-and-increment by ``delta``; returns the old value."""

    addr: int
    delta: int = 1
    release: bool = False
    acquire: bool = False

    def __call__(self, old: int) -> int:
        return old + self.delta


@dataclass(slots=True)
class Swap:
    """Atomic exchange (test-and-set is ``Swap(addr, 1)``); returns old."""

    addr: int
    value: int
    release: bool = False
    acquire: bool = False

    def __call__(self, old: int) -> int:
        return self.value


@dataclass(slots=True)
class WaitLoad:
    """Spin on (sync) loads of ``addr`` until ``pred(value)``; returns it.

    ``acquire`` applies to the successful (predicate-passing) probe.

    ``pred`` must be a *pure function of the loaded value* (capture loop
    state through default arguments, as the synclib kernels do) — the
    spin fast-forward re-evaluates it only when the polled value changes,
    so a predicate reading ambient mutable state would diverge from a
    fully simulated poll loop."""

    addr: int
    pred: Callable[[int], bool]
    sync: bool = True
    acquire: bool = False


@dataclass(slots=True)
class SelfInvalidate:
    """Self-invalidate the Valid words of ``regions`` (DeNovo acquires).

    ``flush_all`` selects the paper's no-information fallback (section 3):
    invalidate *every* non-registered word in the cache, which is always
    correct but costs all cached reuse.
    """

    regions: Sequence[Region] = field(default_factory=tuple)
    flush_all: bool = False


@dataclass(slots=True)
class PushBucket:
    """Route all subsequent cycle accounting to ``component`` (stacked)."""

    component: TimeComponent


@dataclass(slots=True)
class PopBucket:
    """Undo the innermost :class:`PushBucket`."""

"""Traffic accounting: flit crossings per link, by message class.

The paper's traffic metric is "flit crossings across all network links":
a message of F flits traversing H links contributes F * H units.  Messages
between co-located units (a core and its own LLC bank) cross zero links
and contribute nothing.

The ledger only holds the counts.  Every protocol message is sized and
charged into them by one of two calls,
:meth:`~repro.protocols.base.CoherenceProtocol.record_control` and
:meth:`~repro.protocols.base.CoherenceProtocol.record_data`.  They run
once per message, so the per-class counts are fixed-size int lists
indexed by ``MessageClass.<member>.idx`` instead of
``Counter[MessageClass]`` (enum hashing is slow Python-level code).  Keys
are :class:`MessageClass` members only (anything else has no ``idx`` and
raises ``AttributeError``), so :meth:`breakdown` lists every member, zero
counts included.
"""

from __future__ import annotations

from repro.noc.messages import MessageClass

#: Dense ordinal used to index the per-class arrays.
for _i, _klass in enumerate(MessageClass):
    _klass.idx = _i
_NUM_CLASSES = len(MessageClass)


class TrafficLedger:
    """Accumulates flit-crossing counts, keyed by :class:`MessageClass`."""

    __slots__ = ("_flits", "_messages")

    def __init__(self) -> None:
        self._flits: list[int] = [0] * _NUM_CLASSES
        self._messages: list[int] = [0] * _NUM_CLASSES

    def flit_crossings(self, klass: MessageClass | None = None) -> int:
        """Total flit crossings, optionally restricted to one class."""
        if klass is None:
            return sum(self._flits)
        return self._flits[klass.idx]

    def message_count(self, klass: MessageClass | None = None) -> int:
        if klass is None:
            return sum(self._messages)
        return self._messages[klass.idx]

    def breakdown(self) -> dict[str, int]:
        """Flit crossings by class label, as used in the figure legends
        (every :class:`MessageClass` member, zero counts included)."""
        flits = self._flits
        return {klass.value: flits[klass.idx] for klass in MessageClass}

"""Message classes and flit sizing.

The paper measures network traffic as flit crossings over links with 16-bit
flits.  We size messages as:

* control message (request, invalidation, ack, registration transfer):
  a 64-bit address plus type/ids, totalling 5 flits;
* data message: control header plus the payload at 1 flit per 2 bytes.

MESI always moves whole 64-byte cache lines (32 payload flits); DeNovo
moves only the valid words it needs (2 payload flits per 4-byte word),
which is one of the paper's main sources of traffic savings.
"""

from __future__ import annotations

from enum import Enum

#: Flits in a payload-free message (64-bit address + type + src/dst ids).
CONTROL_FLITS = 5

#: Payload bytes carried per 16-bit flit.
BYTES_PER_FLIT = 2


class MessageClass(Enum):
    """Traffic categories matching the paper's figure legends.

    MESI bars use LOAD / STORE / WRITEBACK / INVALIDATION; DeNovo bars use
    LOAD / STORE / SYNCH / WRITEBACK (the paper does not split MESI traffic
    into data vs. synchronization because its MESI does not distinguish them).
    """

    LOAD = "LD"
    STORE = "ST"
    SYNCH = "SYNCH"
    WRITEBACK = "WB"
    INVALIDATION = "Inv"


#: The members as module constants, the spelling simulation code uses (an
#: ``Enum.MEMBER`` load is never specialized on CPython 3.11).
LOAD, STORE, SYNCH, WRITEBACK, INVALIDATION = MessageClass


def control_flits() -> int:
    """Flit count of a control (payload-free) message."""
    return CONTROL_FLITS


def data_flits(payload_bytes: int) -> int:
    """Flit count of a message carrying ``payload_bytes`` of data."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    payload = (payload_bytes + BYTES_PER_FLIT - 1) // BYTES_PER_FLIT
    return CONTROL_FLITS + payload

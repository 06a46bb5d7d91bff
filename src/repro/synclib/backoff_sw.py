"""Software exponential backoff (paper section 5.3.1).

The non-blocking kernels back off after a failed attempt with a delay
drawn from an exponentially growing window capped at [128, 2048) cycles,
the range the paper uses.  The delay is pure local computation and is
charged to the *sw backoff* time component.
"""

from __future__ import annotations

import random

from repro.cpu.isa import Compute
from repro.stats.timeparts import SW_BACKOFF

#: The paper's backoff window bounds, in cycles.
BACKOFF_MIN = 128
BACKOFF_MAX = 2048


def backoff_window(attempt: int, lo: int = BACKOFF_MIN, hi: int = BACKOFF_MAX) -> int:
    """Upper bound of the backoff window after ``attempt`` failures."""
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    return min(hi, lo << attempt)


def exponential_backoff(
    rng: random.Random, attempt: int, lo: int = BACKOFF_MIN, hi: int = BACKOFF_MAX
):
    """Yield the Compute op for one exponential-backoff delay.

    Usage inside a thread program::

        yield from exponential_backoff(ctx.rng, attempt)
    """
    window = backoff_window(attempt, lo, hi)
    delay = rng.randrange(lo, window + 1) if window > lo else lo
    yield Compute(delay, SW_BACKOFF)

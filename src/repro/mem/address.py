"""Address arithmetic.

All simulated addresses are *word indices* (a word is 4 bytes, the DeNovo
coherence granularity).  Cache lines are 16 words (64 bytes).  LLC banks
are interleaved at line granularity across the mesh tiles.

The mapping is plain integer division and remainder, so it holds for
any geometry (a 9-core machine has 9 banks).  Hot paths bind
``words_per_line`` and ``num_banks`` once and inline the same
expressions instead of paying a method call per access.
"""

from __future__ import annotations

from repro.config import SystemConfig


class AddressMap:
    """Maps word addresses to lines, words-in-line, and home LLC banks."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.words_per_line = config.words_per_line
        self.num_banks = config.l2_banks

    def line_of(self, addr: int) -> int:
        """Cache-line id containing word ``addr``."""
        return addr // self.words_per_line

    def word_in_line(self, addr: int) -> int:
        """Word offset of ``addr`` within its line."""
        return addr % self.words_per_line

    def line_base(self, line: int) -> int:
        """Word address of the first word of ``line``."""
        return line * self.words_per_line

    def words_of_line(self, line: int) -> range:
        """All word addresses in ``line``."""
        base = self.line_base(line)
        return range(base, base + self.words_per_line)

    def home_bank(self, line: int) -> int:
        """LLC bank (tile id) that is home for ``line``.

        Lines are interleaved across banks; with one bank per tile this is
        also the tile id used for mesh distance computations.
        """
        return line % self.num_banks

    def home_bank_of_addr(self, addr: int) -> int:
        return self.home_bank(self.line_of(addr))

    def align_up_to_line(self, addr: int) -> int:
        """Smallest line-aligned word address >= ``addr``."""
        rem = self.word_in_line(addr)
        if rem == 0:
            return addr
        return addr + (self.words_per_line - rem)

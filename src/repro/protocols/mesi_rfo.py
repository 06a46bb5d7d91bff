"""MESI with read-for-ownership synchronization reads (extension).

The paper's related-work discussion (section 8) recalls that QOLB-era
work dismissed issuing synchronization reads as read-for-ownership (RFO)
on an invalidation protocol, expecting spurious read misses — and then
argues that DeNovoSync's read registration *is* a judicious RFO.  This
variant closes the loop: plain MESI, except synchronization reads fetch
the line exclusively (Modified), so the acquire's subsequent
test-and-set or flag-reset write hits locally — the write MESI otherwise
pays for after an array-lock acquire (section 6.1.2).

The cost is the mirror of DeNovoSync0's: concurrent synchronization
readers of one word now invalidate each other (R-R ping-pong through the
directory), and spin waits lose their free cached spinning — each
spinner's probe takes the line exclusively and evicts the previous
spinner, exactly the spurious-read-miss concern that made QOLB-era work
dismiss RFO.  Comparing this protocol against DeNovoSync isolates what
the registry (no blocking directory, no sharer lists, word granularity)
adds on top of the bare RFO idea.
"""

from __future__ import annotations

from repro.protocols.mesi import MesiProtocol
from repro.protocols.registry import register_protocol


@register_protocol(
    name="MESI-RFO",
    label="M-RFO",
    paper="MESI + read-for-ownership sync reads (§8)",
    summary=(
        "MESI issuing sync reads as read-for-ownership, the related-"
        "work counterpoint to registering sync reads."
    ),
    tracking="directory",
    invalidation="writer",
)
class MesiRfoProtocol(MesiProtocol):
    name = "MESI-RFO"

    def load(self, core_id: int, addr: int, sync: bool = False) -> tuple:
        if not sync:
            return super().load(core_id, addr, sync)
        # Synchronization read: bring the line in Modified so the write
        # that usually follows an acquire hits locally.
        access = self._obtain_modified(core_id, addr)
        _, latency, hit, retry = access
        if retry:
            return access
        self.counters.bump("rfo_sync_reads")
        return (self.memory.read(addr), latency, hit, False)

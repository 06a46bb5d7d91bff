"""Liveness watchdog: turn silent hangs into structured diagnoses.

PR 1 fixed a MESI bug where a spin-waiter whose cached copy was evicted
slept forever — and the only symptom was a simulation that never ended.
The watchdog makes that failure mode loud.  It detects three conditions:

* **No global progress**: the simulated clock keeps advancing (events
  fire — spin probes, directory retries, backoff stalls) but no core has
  *retired* an operation for ``window`` cycles while unfinished cores
  exist.  This is the livelock shape: everyone busy, nobody moving.
* **Quiescence deadlock**: the event queue drained but some cores never
  finished their programs — a sleeping waiter was stranded with nothing
  left to wake it.
* **Cycle budget exceeded**: the clock passed an explicit ``max_cycles``
  bound (the CLI's ``--max-cycles`` guard against runaway runs).

All three raise :class:`HangError` carrying a full
:class:`~repro.harness.diagnostics.DiagnosticDump`: per-core blocked
operation and wait reason, the directory/registry state of every
contested line, pending transient state (busy directory windows,
in-flight registration chains, fault-injector deferrals), and the event
queue depth.  The renderer lives in :mod:`repro.harness.diagnostics`.

The watchdog is sampled: :meth:`Watchdog.check` runs every
:data:`CHECK_INTERVAL` fired events (the :class:`~repro.sim.engine.Simulator`
run loop calls it), so its overhead is a fraction of a percent of the
event-dispatch cost.
"""

from __future__ import annotations

from collections.abc import Sequence

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim <- harness)
    from repro.harness.diagnostics import DiagnosticDump

#: Cycles without any op retiring before the watchdog declares a livelock.
#: Generous: the largest legitimate retire-free stretch is one maximal
#: dummy-compute window plus a memory miss plus a saturated hardware
#: backoff, well under 100k cycles; 500k keeps headroom for app models.
DEFAULT_PROGRESS_WINDOW = 500_000

#: Fired events between watchdog checks (the sampling rate).
CHECK_INTERVAL = 256


class HangError(RuntimeError):
    """The simulation stopped making progress; carries a diagnostic dump.

    ``dump`` is the structured :class:`DiagnosticDump` (or None when no
    context was available); the rendered dump is appended to the message
    so an unhandled hang prints a full diagnosis, not just a one-liner.
    """

    def __init__(self, message: str, dump: DiagnosticDump | None = None):
        self.dump = dump
        if dump is not None:
            message = f"{message}\n{dump.render()}"
        super().__init__(message)


class SimulationStuck(HangError):
    """The event queue drained with unfinished cores (quiescence deadlock)."""


class Watchdog:
    """Progress monitor for one simulation run.

    ``sim`` is polled for the clock and the last-retire cycle (cores
    stamp ``sim.progress_cycle`` every time an operation retires);
    ``cores`` supply per-core blocked state; ``protocol`` supplies
    directory/registry detail for the dump.
    """

    def __init__(
        self,
        sim,
        cores: Sequence,
        protocol,
        *,
        window: int | None = DEFAULT_PROGRESS_WINDOW,
        max_cycles: int | None = None,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"progress window must be >= 1, got {window}")
        self.sim = sim
        self.cores = cores
        self.protocol = protocol
        self.window = window
        self.max_cycles = max_cycles

    # -- detection -----------------------------------------------------------

    def blocked_cores(self) -> list:
        return [core for core in self.cores if not core.done]

    def check(self) -> None:
        """Periodic in-run check; raises :class:`HangError` on a hang."""
        sim = self.sim
        if self.max_cycles is not None and sim.now > self.max_cycles:
            raise HangError(
                f"simulation exceeded max_cycles={self.max_cycles} "
                f"(clock at {sim.now})",
                self._dump("max-cycles budget exceeded"),
            )
        if self.window is None:
            return
        stalled_for = sim.now - sim.progress_cycle
        if stalled_for > self.window and self.blocked_cores():
            raise HangError(
                f"no core retired an operation for {stalled_for} cycles "
                f"(window {self.window}) while blocked operations exist "
                f"— livelock",
                self._dump("no global progress"),
            )

    def check_quiescent(self) -> None:
        """End-of-run check; raises :class:`SimulationStuck` on a deadlock."""
        blocked = self.blocked_cores()
        if not blocked:
            return
        ids = [core.core_id for core in blocked]
        raise SimulationStuck(
            f"event queue drained with cores {ids} still blocked "
            f"(deadlock or missing wake-up) at cycle {self.sim.now}",
            self._dump("quiescence deadlock"),
        )

    # -- diagnostics ---------------------------------------------------------

    def _dump(self, reason: str) -> DiagnosticDump:
        # Imported lazily: the sim layer must stay importable without the
        # harness, and dumps are only built on the failure path.
        from repro.harness.diagnostics import build_dump

        return build_dump(self.sim, self.cores, self.protocol, reason)

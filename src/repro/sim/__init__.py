"""Event-driven simulation engine."""

from repro.sim.engine import Simulator
from repro.sim.watchdog import HangError, SimulationStuck, Watchdog

__all__ = ["Simulator", "HangError", "SimulationStuck", "Watchdog"]

"""2D mesh topology and hop-based latency interpolation.

Tiles are laid out row-major on a square mesh; each tile holds one core and
one LLC bank (NUCA).  Memory controllers sit at the four mesh corners.
Distances are Manhattan (dimension-ordered routing).  Latency for an access
is interpolated between the Table 1 min (0 hops) and max (farthest tile)
for the relevant access class, so the simulated system reproduces the
paper's latency ranges exactly.

Every value is a pure function of the (static) topology, so the tables —
the hop matrix, the nearest controller per tile, per-(core, bank)
interpolated latency matrices and a per-leg remote-L1 table — are built
once per distinct set of the five config fields they read, shared as
read-only tuples by every :class:`Mesh` of that configuration, and the
public methods become table lookups.  The tables are filled by evaluating
the original closed-form expressions, so the numbers are bit-for-bit what
the formulas produce.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.config import LatencyRange, SystemConfig


def _corner_tiles(side: int) -> tuple[int, ...]:
    """Tile ids of the four on-chip memory controllers (mesh corners)."""
    if side == 1:
        return (0,)
    return (0, side - 1, side * (side - 1), side * side - 1)


def _per_hop_cycles(l2_hit_latency: LatencyRange, max_hops: int) -> float:
    if max_hops == 0:
        return 0.0
    return (l2_hit_latency.max - l2_hit_latency.min) / (2 * max_hops)


@lru_cache(maxsize=16)
def _tables(
    num_cores: int,
    l2_hit_latency: LatencyRange,
    remote_l1_latency: LatencyRange,
    memory_latency: LatencyRange,
    inv_processing: int,
) -> tuple[tuple, ...]:
    """Every table of one mesh, keyed on exactly the fields they read.

    Sweeps that vary any other config field (tuning constants, backoff,
    L1 geometry) share one entry.  Returns (hops, nearest controller,
    remote-L1 latency by leg, l2 latency, memory latency, invalidation
    round trip); the two-argument tables are flat and row-major:
    ``table[a * num_cores + b]``.
    """
    n = num_cores
    side = math.isqrt(n)
    max_hops = 2 * (side - 1)
    coords = [(tile % side, tile // side) for tile in range(n)]
    hops = [0] * (n * n)
    for src, (sx, sy) in enumerate(coords):
        row = src * n
        for dst, (dx, dy) in enumerate(coords):
            hops[row + dst] = abs(sx - dx) + abs(sy - dy)

    controllers = _corner_tiles(side)
    nearest = tuple(
        min(controllers, key=lambda c: (hops[tile * n + c], c)) for tile in range(n)
    )

    # Per-leg latency tables (a leg never exceeds max_hops).
    leg_range = range(max_hops + 1)
    l2_by_leg = tuple(l2_hit_latency.interpolate(leg, max_hops) for leg in leg_range)
    remote_by_leg = tuple(
        remote_l1_latency.interpolate(leg, max_hops) for leg in leg_range
    )
    memory_by_leg = tuple(
        memory_latency.interpolate(leg, max_hops) for leg in leg_range
    )

    memory = [0] * (n * n)
    inv_rtt = [0] * (n * n)
    per_hop = _per_hop_cycles(l2_hit_latency, max_hops)
    for a in range(n):
        row = a * n
        for b in range(n):
            leg = max(hops[row + b], hops[b * n + nearest[b]])
            memory[row + b] = memory_by_leg[leg]
            inv_rtt[row + b] = round(2 * hops[row + b] * per_hop) + inv_processing
    return (
        tuple(hops),
        nearest,
        remote_by_leg,
        tuple(l2_by_leg[h] for h in hops),
        tuple(memory),
        tuple(inv_rtt),
    )


class Mesh:
    """Topology and latency model for one simulated system."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.side = config.mesh_side
        self._controller_tiles = _corner_tiles(self.side)
        self._num_tiles = config.num_cores
        (
            self._hops,
            self._nearest_controller,
            self._remote_by_leg,
            self._l2_latency,
            self._memory_latency,
            self._inv_round_trip,
        ) = _tables(
            config.num_cores,
            config.l2_hit_latency,
            config.remote_l1_latency,
            config.memory_latency,
            config.tuning.inv_processing,
        )

    def _coords_of(self, tile: int) -> tuple[int, int]:
        return tile % self.side, tile // self.side

    def coords(self, tile: int) -> tuple[int, int]:
        """(x, y) coordinates of a tile id."""
        if not 0 <= tile < self._num_tiles:
            raise ValueError(f"tile {tile} out of range")
        return self._coords_of(tile)

    def hops(self, src: int, dst: int) -> int:
        """One-way Manhattan hop distance between two tiles."""
        n = self._num_tiles
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"tile {src if not 0 <= src < n else dst} out of range")
        return self._hops[src * n + dst]

    def nearest_controller(self, tile: int) -> int:
        """Tile id of the memory controller closest to ``tile``."""
        return self._nearest_controller[tile]

    # -- latency interpolation over Table 1 ranges ------------------------

    def l2_access_latency(self, core: int, bank: int) -> int:
        """Latency of an L1 miss serviced at LLC bank ``bank`` (round trip)."""
        return self._l2_latency[core * self._num_tiles + bank]

    def remote_l1_latency(self, core: int, bank: int, owner: int) -> int:
        """Latency of an L1 miss forwarded by the home bank to a remote L1.

        Interpolated over the longer of the two legs (home, owner) so the
        0-hop case costs the Table 1 minimum and the farthest case the max.
        """
        n = self._num_tiles
        hops = self._hops
        a = hops[core * n + bank]
        b = hops[bank * n + owner]
        return self._remote_by_leg[a if a > b else b]

    def memory_latency(self, core: int, bank: int) -> int:
        """Latency of an access that misses the LLC and goes to memory."""
        return self._memory_latency[core * self._num_tiles + bank]

    def per_hop_cycles(self) -> float:
        """One-way per-hop network cost implied by the Table 1 L2 range."""
        return _per_hop_cycles(self.config.l2_hit_latency, self.config.max_hops)

    def invalidation_round_trip(self, bank: int, sharer: int) -> int:
        """Invalidate-and-ack round trip between the home bank and a sharer.

        Two control messages over the mesh plus a small processing cost at
        the sharer.  Charged on the critical path of a MESI write/upgrade
        (write atomicity: the write completes only after all acks).
        """
        return self._inv_round_trip[bank * self._num_tiles + sharer]

"""Simulated system configuration (paper Table 1).

The paper evaluates 16- and 64-core tiled chip multiprocessors: private
32KB L1 data caches, a shared NUCA L2 (one bank per tile), four on-chip
memory controllers, and a 2D mesh with 16-bit flits (the flit width is
``repro.noc.messages.BYTES_PER_FLIT``).  Latencies are given as ranges
(min at zero mesh hops, max at the farthest tile); the latency model in
:mod:`repro.noc.mesh` interpolates linearly over round-trip hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class LatencyRange:
    """A [min, max] latency range from Table 1, in cycles.

    ``min`` applies when the target is zero mesh hops away and ``max`` when
    it is at the maximum round-trip distance for the mesh.
    """

    min: int
    max: int

    def interpolate(self, hops: int, max_hops: int) -> int:
        """Latency at ``hops`` one-way mesh hops (of ``max_hops`` possible)."""
        if max_hops <= 0:
            return self.min
        span = self.max - self.min
        return self.min + round(span * min(hops, max_hops) / max_hops)


@dataclass(frozen=True)
class BackoffConfig:
    """DeNovoSync hardware-backoff parameters (paper section 5.2).

    * ``counter_bits``: size of the per-core backoff counter; the counter
      wraps to zero on overflow.
    * ``default_increment``: initial/reset value of the increment counter.
    * ``update_period``: the increment counter grows by ``default_increment``
      on every ``update_period``-th incoming remote sync-read registration
      request (the paper uses the core count).
    """

    counter_bits: int
    default_increment: int
    update_period: int

    def __post_init__(self) -> None:
        # The hardware wrap in repro.protocols.backoff masks the counter
        # with ``counter_max``, which is only a correct bit mask when it is
        # of the form 2^k - 1 with k >= 1; that requires a positive whole
        # number of counter bits.
        if not isinstance(self.counter_bits, int) or self.counter_bits < 1:
            raise ValueError(
                f"counter_bits must be a positive integer, got {self.counter_bits!r}"
            )
        if self.update_period < 1:
            raise ValueError(
                f"update_period must be >= 1, got {self.update_period!r}"
            )
        if self.default_increment < 0:
            raise ValueError(
                f"default_increment must be non-negative, got {self.default_increment!r}"
            )

    @property
    def counter_max(self) -> int:
        """All-ones mask of the counter's bit width (2^k - 1 by construction)."""
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class ProtocolTuning:
    """Micro-architectural calibration constants, exposed for sensitivity
    studies (see ``denovosync-bench ext-sensitivity``).

    * ``bank_occupancy``: LLC bank busy cycles for a clean (no third
      party) transaction.
    * ``ownership_occupancy``: cycles a MESI directory entry stays blocked
      for an ownership transaction (owner forward / invalidation
      collection); the rest of the unblock round trip is tracked in
      MSHRs.  DeNovo's registry never blocks.
    * ``chain_link_cost``: per-link serialization of DeNovo's distributed
      registration queue (the MSHR hand-off; the network legs of
      consecutive forwards overlap).
    * ``store_aggregation_window``: cycles within which DeNovo data
      stores to one line combine into a single registration message.
    * ``inv_processing``: sharer-side processing added to a MESI
      invalidation round trip.
    * ``self_invalidate_latency``: cycles for DeNovo's flash
      self-invalidation instruction.
    * ``neat_flush_line_cost``: per-dirty-line cycles of Neat's
      self-downgrade flush at a release boundary.
    * ``sync_unit_occupancy``: cycles one SynCron per-bank sync unit is
      busy per synchronization operation (its serialization grain).
    * ``sync_unit_entries``: bounded capacity of a SynCron sync unit's
      variable buffer; inserting into a full buffer spills the LRU
      entry to memory (the overflow fallback).
    """

    bank_occupancy: int = 4
    ownership_occupancy: int = 16
    chain_link_cost: int = 4
    store_aggregation_window: int = 200
    inv_processing: int = 4
    self_invalidate_latency: int = 1
    neat_flush_line_cost: int = 2
    sync_unit_occupancy: int = 4
    sync_unit_entries: int = 64


#: Valid settings for :attr:`SystemConfig.invariant_level`.
INVARIANT_LEVELS = ("off", "full")


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system parameters for one experiment.

    Defaults correspond to the paper's 16-core configuration; use
    :func:`config_16` / :func:`config_64` for the published setups.

    ``invariant_level`` arms the runtime coherence invariant checker
    (:class:`~repro.protocols.invariants.InvariantAudit`): ``off``
    disables it, ``full`` audits the full protocol state before every
    state-changing protocol call.
    """

    num_cores: int = 16
    line_bytes: int = 64
    word_bytes: int = 4
    l1_bytes: int = 32 * 1024
    l1_assoc: int = 8
    l2_banks: int = 16
    l1_hit_latency: int = 1
    l2_hit_latency: LatencyRange = field(default_factory=lambda: LatencyRange(28, 68))
    remote_l1_latency: LatencyRange = field(default_factory=lambda: LatencyRange(37, 97))
    memory_latency: LatencyRange = field(default_factory=lambda: LatencyRange(197, 277))
    backoff: BackoffConfig = field(
        default_factory=lambda: BackoffConfig(
            counter_bits=9, default_increment=1, update_period=16
        )
    )
    tuning: ProtocolTuning = field(default_factory=ProtocolTuning)
    invariant_level: str = "off"

    def __post_init__(self) -> None:
        side = math.isqrt(self.num_cores)
        if side * side != self.num_cores:
            raise ValueError(
                f"num_cores must be a perfect square for a 2D mesh, got {self.num_cores}"
            )
        # The mesh tables index banks as tiles (one bank per tile at
        # most), and the L1 and address arithmetic divide by these.
        if not 1 <= self.l2_banks <= self.num_cores:
            raise ValueError(
                f"l2_banks must be between 1 and num_cores ({self.num_cores}), "
                f"got {self.l2_banks}"
            )
        if self.l1_assoc < 1:
            raise ValueError(f"l1_assoc must be >= 1, got {self.l1_assoc}")
        if self.word_bytes < 1:
            raise ValueError(f"word_bytes must be >= 1, got {self.word_bytes}")
        if self.line_bytes < 1 or self.line_bytes % self.word_bytes:
            raise ValueError(
                "line_bytes must be a positive multiple of word_bytes, "
                f"got {self.line_bytes}"
            )
        # The L1 indexes sets by line % l1_sets, so it needs one set.
        if self.l1_bytes < self.line_bytes * self.l1_assoc:
            raise ValueError(
                "l1_bytes must hold at least one set of l1_assoc lines "
                f"({self.line_bytes * self.l1_assoc}), got {self.l1_bytes}"
            )
        if self.invariant_level not in INVARIANT_LEVELS:
            raise ValueError(
                f"invariant_level must be one of {INVARIANT_LEVELS}, "
                f"got {self.invariant_level!r}"
            )

    @property
    def mesh_side(self) -> int:
        """Width/height of the square mesh of tiles."""
        return math.isqrt(self.num_cores)

    @property
    def max_hops(self) -> int:
        """Maximum one-way Manhattan distance across the mesh."""
        return 2 * (self.mesh_side - 1)

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes

    @property
    def l1_lines(self) -> int:
        return self.l1_bytes // self.line_bytes

    @property
    def l1_sets(self) -> int:
        return self.l1_lines // self.l1_assoc


def config_16(**overrides) -> SystemConfig:
    """The paper's 16-core system (Table 1)."""
    params = dict(
        num_cores=16,
        l2_banks=16,
        l2_hit_latency=LatencyRange(28, 68),
        remote_l1_latency=LatencyRange(37, 97),
        memory_latency=LatencyRange(197, 277),
        backoff=BackoffConfig(counter_bits=9, default_increment=1, update_period=16),
    )
    params.update(overrides)
    return SystemConfig(**params)


def config_64(**overrides) -> SystemConfig:
    """The paper's 64-core system (Table 1)."""
    params = dict(
        num_cores=64,
        l2_banks=64,
        l2_hit_latency=LatencyRange(28, 140),
        remote_l1_latency=LatencyRange(37, 205),
        memory_latency=LatencyRange(197, 421),
        backoff=BackoffConfig(counter_bits=12, default_increment=64, update_period=64),
    )
    params.update(overrides)
    return SystemConfig(**params)


def config_for_cores(num_cores: int, **overrides) -> SystemConfig:
    """Config for an arbitrary (perfect-square) core count.

    Uses the published 16/64-core parameters where they exist and scales the
    backoff/update parameters with the core count otherwise, following the
    paper's guidance that the update period should track the core count.
    """
    if num_cores == 16:
        return config_16(**overrides)
    if num_cores == 64:
        return config_64(**overrides)
    base = config_16() if num_cores < 64 else config_64()
    params = dict(
        num_cores=num_cores,
        l2_banks=num_cores,
        l2_hit_latency=base.l2_hit_latency,
        remote_l1_latency=base.remote_l1_latency,
        memory_latency=base.memory_latency,
        backoff=BackoffConfig(
            counter_bits=base.backoff.counter_bits,
            default_increment=base.backoff.default_increment,
            update_period=num_cores,
        ),
    )
    params.update(overrides)
    return SystemConfig(**params)

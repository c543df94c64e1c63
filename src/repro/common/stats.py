"""Statistics collection shared by every simulated cache scheme.

:class:`CacheStats` is intentionally a plain bag of integer counters with
derived-ratio helpers — the hot path does ``stats.hits += 1`` directly —
plus structured latency accounting used by the AMAT/CPI models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple


@dataclass(slots=True)
class CacheStats:
    """Counters accumulated by a cache over a simulation run.

    ``accesses`` counts demand lookups; ``hits``/``misses`` partition it.
    Cooperative schemes (SBC, STEM) additionally split hits into local
    and cooperative ("second") hits, and count the inter-set traffic the
    paper's timing model charges for.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    local_hits: int = 0
    cooperative_hits: int = 0
    misses_single_probe: int = 0  # miss resolved after one tag-store probe
    misses_double_probe: int = 0  # coupled-taker miss probing both sets
    evictions: int = 0
    writebacks: int = 0
    spills: int = 0           # victims forwarded to a cooperative set
    spill_rejects: int = 0    # spills refused by receiving control
    shadow_hits: int = 0      # SCDM shadow-set hits (STEM only)
    policy_swaps: int = 0     # SC_T-triggered LRU<->BIP swaps (STEM only)
    couplings: int = 0
    decouplings: int = 0
    safe_mode_entries: int = 0  # sets degraded to LRU after corruption
    total_latency_cycles: int = 0

    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        """Misses / accesses, or 0.0 when no accesses were recorded."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Hits / accesses, or 0.0 when no accesses were recorded."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def amat_cycles(self) -> float:
        """Average latency per access in cycles (0.0 if no accesses)."""
        if not self.accesses:
            return 0.0
        return self.total_latency_cycles / self.accesses

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named ad-hoc counter in :attr:`extra`."""
        self.extra[name] = self.extra.get(name, 0) + amount

    def merge(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into this object (for sharded runs)."""
        for name in counter_field_names():
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name, amount in other.extra.items():
            self.bump(name, amount)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view, convenient for result tables."""
        table: Dict[str, float] = {
            name: getattr(self, name) for name in counter_field_names()
        }
        table["miss_rate"] = self.miss_rate
        table["hit_rate"] = self.hit_rate
        table.update(self.extra)
        return table

    def counter_snapshot(self) -> Dict[str, int]:
        """Raw counter values only — no derived ratios, no ``extra``.

        The windowed-metrics registry diffs consecutive snapshots to
        produce per-window deltas; keeping the snapshot free of floats
        makes those deltas exact integers.
        """
        return {name: getattr(self, name) for name in counter_field_names()}


#: Every integer counter field, derived once from the dataclass so
#: ``merge``/``as_dict`` (and the metrics registry's tracked set) can never
#: silently drop a newly added counter.
_COUNTER_FIELDS: Tuple[str, ...] = tuple(
    spec.name for spec in fields(CacheStats) if spec.name != "extra"
)


def counter_field_names() -> Tuple[str, ...]:
    """Names of all :class:`CacheStats` integer counters, in order."""
    return _COUNTER_FIELDS

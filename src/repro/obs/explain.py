"""Attribute a hit/miss delta to STEM's spatiotemporal decisions.

The paper's Figure 6 framing claims STEM's wins decompose along two
axes: spatial (capacity lent by givers to takers) and temporal
(insertion-policy swaps on thrashing sets).  :func:`attribute` makes
that decomposition exact for a pair of finished runs:

* **spatial** — the delta in cooperative hits, i.e. hits that landed
  in borrowed space.  ``stats.cooperative_hits`` counts exactly those,
  so the global component needs no ledger at all.
* **temporal** — the delta in hits earned while the home set's
  insertion policy was swapped away from the default (BIP windows).
  These come from the ledger's attribution counters
  (``swapped_policy_hits``), maintained per set under the tracer guard.
* **residual** — everything else: replacement-order interactions,
  second-order effects of spills on the giver's own blocks, plain
  noise.  Defined as ``total - spatial - temporal``, so the three
  components sum to the total hit delta *exactly*, by construction,
  globally and per set.

All inputs are integers derived from deterministic runs, so the
report — text, JSON, or HTML — is byte-stable across repeated runs and
across serial/parallel execution.  Runs without a ledger degrade
gracefully: missing components are taken as zero and a note says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.analysis.classification import GainClassification, classify_gains

if TYPE_CHECKING:  # pragma: no cover — type-only, avoids an import cycle
    from repro.sim.simulator import RunResult


def _label(result: "RunResult") -> str:
    return f"{result.scheme} on {result.trace_name}"


def _counter(result: RunResult, name: str) -> Optional[List[int]]:
    ledger = result.ledger
    if ledger is None or ledger.counters is None:
        return None
    values = ledger.counters.get(name)
    return list(values) if values is not None else None


@dataclass(frozen=True)
class SetAttribution:
    """One set's share of the decomposition (all exact integers)."""

    set_index: int
    delta_hits: int
    spatial: int
    temporal: int

    @property
    def residual(self) -> int:
        return self.delta_hits - self.spatial - self.temporal

    def as_dict(self) -> Dict[str, int]:
        return {
            "set_index": self.set_index,
            "delta_hits": self.delta_hits,
            "spatial": self.spatial,
            "temporal": self.temporal,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class Attribution:
    """The full decomposition :func:`attribute` produces."""

    label_a: str
    label_b: str
    total_delta_hits: int
    spatial: int
    temporal: int
    accesses_a: int
    accesses_b: int
    classification: GainClassification
    sets: List[SetAttribution] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    ledger_summary_a: Optional[Dict[str, Any]] = None
    ledger_summary_b: Optional[Dict[str, Any]] = None

    @property
    def residual(self) -> int:
        return self.total_delta_hits - self.spatial - self.temporal

    def as_dict(self) -> Dict[str, Any]:
        """JSON view; per-set rows in set order for stable bytes."""
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "total_delta_hits": self.total_delta_hits,
            "spatial": self.spatial,
            "temporal": self.temporal,
            "residual": self.residual,
            "accesses_a": self.accesses_a,
            "accesses_b": self.accesses_b,
            "class_label": self.classification.label,
            "sets": [
                row.as_dict()
                for row in sorted(self.sets, key=lambda r: r.set_index)
            ],
            "notes": list(self.notes),
            "ledger_a": self.ledger_summary_a,
            "ledger_b": self.ledger_summary_b,
        }

    def render(self, top_k: int = 8) -> str:
        """Fixed-width text report (byte-stable for identical inputs)."""
        lines = [f"explain: A = {self.label_a} -> B = {self.label_b}"]
        lines.append(
            f"total hit delta (B - A): {self.total_delta_hits:+d} hits "
            f"over {self.accesses_b} measured accesses"
        )

        def share(component: int) -> str:
            scale = abs(self.total_delta_hits)
            if scale == 0:
                return ""
            return f"  ({100.0 * component / scale:.1f}% of total)"

        lines.append(
            f"  spatial   {self.spatial:+d}"
            f"  cooperative hits in borrowed space{share(self.spatial)}"
        )
        lines.append(
            f"  temporal  {self.temporal:+d}"
            f"  hits under a swapped insertion policy"
            f"{share(self.temporal)}"
        )
        lines.append(
            f"  residual  {self.residual:+d}"
            f"  replacement-order and interaction effects"
            f"{share(self.residual)}"
        )
        lines.append(f"observed class: {self.classification.label}")
        if self.sets:
            ranked = sorted(
                self.sets,
                key=lambda r: (-abs(r.delta_hits), r.set_index),
            )[:top_k]
            lines.append(f"top {len(ranked)} diverging sets:")
            for row in ranked:
                lines.append(
                    f"  set {row.set_index:>5}"
                    f"  dhits {row.delta_hits:+6d}"
                    f"  spatial {row.spatial:+6d}"
                    f"  temporal {row.temporal:+6d}"
                    f"  residual {row.residual:+6d}"
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def attribute(a: RunResult, b: RunResult) -> Attribution:
    """Decompose the hit delta between runs ``a`` (base) and ``b``.

    Both runs may carry ledgers (``RunOptions(ledger=True)`` runs or
    saved-run files written from such runs); either may lack one, in
    which case the affected components fall back to stats-only or zero
    with an explanatory note.  The invariant
    ``spatial + temporal + residual == total_delta_hits`` holds in
    every case, globally and for each per-set row.
    """
    notes: List[str] = []
    if a.trace_name != b.trace_name:
        notes.append(
            f"runs are on different traces ({a.trace_name} vs "
            f"{b.trace_name}); the decomposition compares unlike runs"
        )
    if a.measured_accesses != b.measured_accesses:
        notes.append(
            f"measured access counts differ ({a.measured_accesses} vs "
            f"{b.measured_accesses}); compare rates, not counts"
        )

    total = b.stats.hits - a.stats.hits
    spatial = b.stats.cooperative_hits - a.stats.cooperative_hits

    bip_a = _counter(a, "swapped_policy_hits")
    bip_b = _counter(b, "swapped_policy_hits")
    if bip_a is None and a.stats.policy_swaps:
        notes.append(
            f"run A ({_label(a)}) swapped policies but carries no "
            "ledger counters; its temporal component is taken as 0"
        )
    if bip_b is None and b.stats.policy_swaps:
        notes.append(
            f"run B ({_label(b)}) swapped policies but carries no "
            "ledger counters; its temporal component is taken as 0"
        )
    temporal = (sum(bip_b) if bip_b else 0) - (sum(bip_a) if bip_a else 0)

    sets: List[SetAttribution] = []
    hits_a = _counter(a, "hits")
    hits_b = _counter(b, "hits")
    if hits_a is not None and hits_b is not None:
        if len(hits_a) != len(hits_b):
            notes.append(
                f"per-set counters cover different geometries "
                f"({len(hits_a)} vs {len(hits_b)} sets); "
                "per-set rows skipped"
            )
        else:
            coop_a = _counter(a, "cooperative_hits") or [0] * len(hits_a)
            coop_b = _counter(b, "cooperative_hits") or [0] * len(hits_b)
            set_bip_a = bip_a or [0] * len(hits_a)
            set_bip_b = bip_b or [0] * len(hits_b)
            for set_index in range(len(hits_a)):
                delta = hits_b[set_index] - hits_a[set_index]
                row = SetAttribution(
                    set_index=set_index,
                    delta_hits=delta,
                    spatial=coop_b[set_index] - coop_a[set_index],
                    temporal=(
                        set_bip_b[set_index] - set_bip_a[set_index]
                    ),
                )
                if (row.delta_hits or row.spatial or row.temporal):
                    sets.append(row)
    else:
        missing = [
            _label(r) for r, h in ((a, hits_a), (b, hits_b)) if h is None
        ]
        notes.append(
            "per-set rows need ledger counters on both runs; missing "
            "on " + " and ".join(missing)
        )

    return Attribution(
        label_a=_label(a),
        label_b=_label(b),
        total_delta_hits=total,
        spatial=spatial,
        temporal=temporal,
        accesses_a=a.measured_accesses,
        accesses_b=b.measured_accesses,
        classification=classify_gains(spatial, temporal, total),
        sets=sets,
        notes=notes,
        ledger_summary_a=(
            a.ledger.summary() if a.ledger is not None else None
        ),
        ledger_summary_b=(
            b.ledger.summary() if b.ledger is not None else None
        ),
    )

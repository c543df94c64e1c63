#!/usr/bin/env python3
"""Classic microbenchmark patterns through every LLC scheme.

Runs the canonical cache-study patterns — oversized sequential scans,
conflict-heavy strided walks, pointer chasing, tiled matrix traversal
and a hot/cold mix — against the full scheme roster, and shows a
per-window timeline of STEM adapting to the strided walk.

Run:  python examples/microbenchmarks.py
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.sim import RunOptions, make_scheme, run_trace
from repro.workloads.patterns import (
    hot_cold,
    pointer_chase,
    sequential_scan,
    strided_scan,
    tiled_matrix_traversal,
)

GEOMETRY = CacheGeometry(num_sets=64, associativity=8)  # 32 KiB toy LLC
SCHEMES = ("LRU", "BIP", "DIP", "SRRIP", "V-Way", "SBC", "STEM")


def build_patterns():
    return {
        # Enough passes for STEM's per-set SC_T duel to gather evidence
        # (each set only sees a handful of accesses per pass).
        "seq scan 4x cache": sequential_scan(
            array_bytes=4 * GEOMETRY.capacity_bytes, passes=10,
            element_bytes=64,
        ),
        "strided (1 set)": strided_scan(
            array_bytes=8 * GEOMETRY.capacity_bytes,
            stride_bytes=GEOMETRY.num_sets * 64, passes=3,
        ),
        "pointer chase": pointer_chase(num_nodes=2048, hops=24_000),
        "tiled matrix": tiled_matrix_traversal(
            matrix_rows=64, matrix_cols=64, tile=16, sweeps_per_tile=4,
            element_bytes=64,
        ),
        "hot/cold 90/10": hot_cold(
            hot_bytes=16 * 1024, cold_bytes=1024 * 1024, length=30_000,
        ),
    }


def main() -> None:
    patterns = build_patterns()
    print(f"LLC: {GEOMETRY.capacity_bytes // 1024} KiB, "
          f"{GEOMETRY.associativity}-way, {GEOMETRY.num_sets} sets\n")
    header = f"{'pattern':>18s}" + "".join(f"{s:>8s}" for s in SCHEMES)
    print(header + "   (miss rates)")
    for label, trace in patterns.items():
        cells = []
        for scheme in SCHEMES:
            cache = make_scheme(scheme, GEOMETRY)
            result = run_trace(cache, trace, warmup_fraction=0.3)
            cells.append(f"{result.miss_rate:8.3f}")
        print(f"{label:>18s}" + "".join(cells))

    print("\nSTEM per-window miss rate on the strided walk "
          "(watch the swap/coupling machinery engage):")
    # No warm-up discard: the first window shows the cold start.
    series = run_trace(
        make_scheme("STEM", GEOMETRY), patterns["strided (1 set)"],
        warmup_fraction=0.0, options=RunOptions(metrics_window=2000),
    ).series.series
    for window, rate in enumerate(series["miss_rate"]):
        swaps = series["policy_swaps"][window]
        spills = series["spills"][window]
        bar = "#" * round(rate * 40)
        print(f"  window {window:2d}: {rate:5.2f} {bar}"
              f"   (+{swaps:.0f} swaps, +{spills:.0f} spills)")


if __name__ == "__main__":
    main()

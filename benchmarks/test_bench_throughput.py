"""Microbenchmarks: simulation throughput of each LLC scheme.

Two surfaces share this module:

* ``test_bench_scheme_throughput`` — true pytest-benchmark measurements
  (multiple rounds) of accesses/second per scheme, for interactive
  profiling (``pytest benchmarks/ --benchmark-only``).
* The ``BENCH_throughput.json`` recorder/guard pair.  The committed
  artefact at the repo root pins each scheme's accesses/sec (plus the
  measured wall-clock and run-manifest hash for provenance) at a fixed
  reference workload.  ``BENCH_RECORD=1`` re-measures and rewrites it;
  ``BENCH_GUARD=1`` re-measures and fails if throughput fell below
  ``BENCH_GUARD_RATIO`` (default 0.8, i.e. a >20 % regression) of the
  committed numbers.  Keys starting with ``_`` are metadata and are
  never guarded.

Recording covers **every** scheme in the factory registry (aliases
deduplicated), not just the paper's headline four.  Performance over
time is perfbench's record (``perfbench/``); this pair is only the CI
throughput floor.
"""

import gc
import json
import os
from pathlib import Path

import pytest

from repro.common.io import atomic_write_text
from repro.sim.config import (
    ExperimentScale,
    make_scheme,
    registry_scheme_keys,
)
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

SCALE = ExperimentScale(num_sets=64, associativity=16)
TRACE = make_benchmark_trace("omnetpp", num_sets=64, length=20_000)

#: Reference workload for the recorded/guarded numbers: long enough
#: that per-run noise stays within a few percent on a quiet machine.
#: Every distinct scheme in the registry is recorded.
RECORD_SCHEMES = tuple(registry_scheme_keys())
RECORD_LENGTH = 200_000
ARTEFACT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


@pytest.mark.parametrize(
    "scheme", ["LRU", "DIP", "PeLIFO", "V-Way", "SBC", "STEM"]
)
def test_bench_scheme_throughput(benchmark, scheme):
    addresses = TRACE.addresses

    def simulate():
        cache = make_scheme(scheme, SCALE.geometry())
        access = cache.access
        for address in addresses:
            access(address)
        return cache.stats.misses

    misses = benchmark(simulate)
    assert misses > 0


#: Throughput repetitions: wall-clock noise on a loaded host easily
#: reaches tens of percent, so record/guard use the best of N runs.
MEASURE_REPS = 3


def _measure(scheme: str) -> dict:
    """Best-of-``MEASURE_REPS`` run of ``scheme`` on the reference load.

    The geometry precompute happens outside the timed phases, so rep 1
    and rep 3 measure the same work.
    """
    trace = make_benchmark_trace(
        "omnetpp", num_sets=SCALE.num_sets, length=RECORD_LENGTH
    )
    best = None
    # Collector pauses from earlier runs' garbage can swallow tens of
    # percent of a later scheme's measured phase; isolate each rep.
    gc.collect()
    gc.disable()
    try:
        for _ in range(MEASURE_REPS):
            cache = make_scheme(scheme, SCALE.geometry())
            manifest = run_trace(cache, trace).manifest
            rate = manifest.measured_accesses / manifest.measured_seconds
            if best is None or rate > best[0]:
                best = (rate, manifest)
            gc.collect()
    finally:
        gc.enable()
    rate, manifest = best
    return {
        "accesses_per_sec": round(rate, 1),
        "wall_seconds": round(
            manifest.measured_seconds + manifest.warmup_seconds, 4
        ),
        "manifest_hash": manifest.content_hash,
    }


@pytest.mark.skipif(
    os.environ.get("BENCH_RECORD") != "1",
    reason="recorder runs only with BENCH_RECORD=1",
)
def test_bench_record_throughput():
    # Metadata is rewritten fresh on every recording — a recorded rate
    # describes *this* measurement, so a stale note (or an inline copy
    # of some past recording's rates) would misframe it.
    document = {
        "_meta": {
            "note": (
                "Re-record with BENCH_RECORD=1 pytest "
                "benchmarks/test_bench_throughput.py -k record; guard "
                "with BENCH_GUARD=1 (ratio via BENCH_GUARD_RATIO, "
                "default 0.8)."
            ),
            "workload": (
                f"omnetpp, {SCALE.num_sets} sets x "
                f"{SCALE.associativity} ways, {RECORD_LENGTH} accesses, "
                f"warmup 0.25, best of repeated runs"
            ),
        },
    }
    for scheme in RECORD_SCHEMES:
        document[scheme] = _measure(scheme)
    atomic_write_text(
        ARTEFACT, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    assert all(document[s]["accesses_per_sec"] > 0 for s in RECORD_SCHEMES)


@pytest.mark.skipif(
    os.environ.get("BENCH_GUARD") != "1",
    reason="guard runs only with BENCH_GUARD=1",
)
def test_bench_throughput_guard():
    assert ARTEFACT.is_file(), f"missing committed artefact {ARTEFACT}"
    document = json.loads(ARTEFACT.read_text(encoding="utf-8"))
    ratio = float(os.environ.get("BENCH_GUARD_RATIO", "0.8"))
    failures = []
    for key, recorded in document.items():
        if key.startswith("_"):
            continue
        measured = _measure(key)["accesses_per_sec"]
        floor = recorded["accesses_per_sec"] * ratio
        if measured < floor:
            failures.append(
                f"{key}: {measured:,.0f} acc/s < floor {floor:,.0f} "
                f"(recorded {recorded['accesses_per_sec']:,.0f})"
            )
    assert not failures, "; ".join(failures)

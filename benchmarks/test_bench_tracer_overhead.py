"""Benchmark: wall-clock cost of a disabled tracer on STEM's hot path.

Tier-1 checks the zero-overhead-when-disabled contract structurally
(``tests/test_obs.py``: a disabled tracer never reaches ``emit``).  This
target keeps the timing view of the same contract: an explicit no-op
``Tracer()`` against the default on a 50k-access trace.  Both caches run
the byte-identical guarded path (the default *is* a disabled tracer), so
the ratio only measures host noise; interleaved rounds and min-of-N keep
it meaningful on a quiet machine.  Run with::

    python -m pytest benchmarks/test_bench_tracer_overhead.py -s
"""

from time import perf_counter

from repro.cache.geometry import CacheGeometry
from repro.core.stem_cache import StemCache
from repro.obs import Tracer
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(num_sets=64, associativity=16, line_size=64)


def test_bench_disabled_tracer_overhead_within_5_percent():
    addresses = make_benchmark_trace(
        "omnetpp", num_sets=64, length=50_000
    ).addresses

    def timed_run(tracer):
        cache = StemCache(GEOMETRY, tracer=tracer)
        access = cache.access
        start = perf_counter()
        for address in addresses:
            access(address)
        return perf_counter() - start

    baseline, noop = [], []
    for _ in range(5):
        baseline.append(timed_run(None))
        noop.append(timed_run(Tracer()))
    print(f"\ndefault {min(baseline):.4f}s, explicit no-op "
          f"{min(noop):.4f}s ({min(noop) / min(baseline):.3f}x)")
    assert min(noop) <= min(baseline) * 1.05

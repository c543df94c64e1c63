"""Shared evaluation harness behind Figures 7-9 and the headline.

The paper evaluates the 15 benchmarks once under every scheme and then
reads three different metrics off the same runs (MPKI, AMAT, CPI).  We
do the same: :func:`run_evaluation` produces the full
:class:`~repro.sim.results.ResultMatrix`, and each figure module
projects its metric out of it.  The matrix is cached per scale inside
the module so invoking figure7 + figure8 + figure9 in one process costs
one simulation pass.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.sim.config import PAPER_SCHEMES, ExperimentScale
from repro.sim.results import ResultMatrix
from repro.sim.runner import run_benchmarks

_CACHE: Dict[Tuple, ResultMatrix] = {}


def run_evaluation(
    scale: Optional[ExperimentScale] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    benchmarks: Optional[Sequence[str]] = None,
) -> ResultMatrix:
    """The 15-benchmark x 6-scheme grid behind Figures 7, 8 and 9."""
    scale = scale if scale is not None else ExperimentScale.default()
    key = (
        scale.num_sets,
        scale.associativity,
        scale.trace_length,
        tuple(schemes),
        tuple(benchmarks) if benchmarks is not None else None,
    )
    if key not in _CACHE:
        _CACHE[key] = run_benchmarks(
            schemes, benchmarks=benchmarks, scale=scale
        )
    return _CACHE[key]


def clear_cache() -> None:
    """Drop memoised evaluation runs (tests use this)."""
    _CACHE.clear()

"""Simulation configuration and the scheme factory.

:class:`MachineConfig` collects the Table 1 parameters the timing model
consumes; :func:`make_scheme` builds any of the evaluated LLC schemes
by the names the paper uses, so experiments are driven by declarative
(scheme-name, geometry) pairs.  :class:`RunOptions` is the one value
that carries a run's optional outputs and execution path through every
entry point, from :func:`~repro.sim.simulator.run_trace` to campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import Lfsr
from repro.core.config import StemConfig
from repro.obs.tracer import Tracer
from repro.core.stem_cache import StemCache
from repro.policies.registry import make_policy
from repro.sim.columnar import BACKENDS
from repro.spatial.page_coloring import PageColoringCache
from repro.spatial.sbc import SbcCache
from repro.spatial.sbc_static import StaticSbcCache
from repro.spatial.victim_cache import VictimCache
from repro.spatial.vway import VwayCache
from repro.timing.cpi import PAPER_CPI, CpiModel
from repro.timing.latency import PAPER_LATENCY, LatencyModel

#: The five competing schemes of Figures 7-10, plus the LRU baseline.
PAPER_SCHEMES = ("LRU", "DIP", "PeLIFO", "V-Way", "SBC", "STEM")


@dataclass(frozen=True)
class MachineConfig:
    """Timing-relevant machine parameters (Table 1 + DESIGN.md §7)."""

    latency: LatencyModel = PAPER_LATENCY
    cpi: CpiModel = PAPER_CPI


@dataclass(frozen=True)
class RunOptions:
    """Per-run options: what a run records and which path executes it.

    ``metrics_window`` (accesses) samples a
    :class:`~repro.obs.metrics.MetricsRegistry` at every window boundary
    of the measured phase into ``result.series``.  Boundaries align with
    ``access_batch`` chunks, so batch and scalar runs produce identical
    series (DESIGN.md §10).

    ``backend`` picks the execution path: ``"python"`` (the scalar
    oracle), ``"numpy"`` (the columnar kernel of
    :mod:`repro.sim.columnar`), or ``"auto"``/``None`` — numpy exactly
    when it is importable and the scheme has an exact kernel.  The
    exactness contract (DESIGN.md §13) makes the choice invisible in
    results: it only changes wall-clock time.

    ``ledger=True`` attaches a :class:`~repro.obs.ledger.LedgerSink`
    before warm-up and seals it into ``result.ledger``: coupling
    episodes, policy swaps and the per-set capacity-flow account,
    conservation verified at close (DESIGN.md §14).  The enabled tracer
    forces the scalar path; the ledger stays deterministic across
    serial and parallel execution.

    The defaults touch nothing and cost nothing.
    """

    metrics_window: Optional[int] = None
    backend: Optional[str] = None
    ledger: bool = False

    def __post_init__(self) -> None:
        window = self.metrics_window
        if window is not None and (type(window) is not int or window <= 0):
            raise ConfigError(
                f"metrics_window must be a positive integer, got {window!r}"
            )
        if self.backend not in (None, *BACKENDS):
            raise ConfigError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(BACKENDS)}"
            )
        if type(self.ledger) is not bool:
            raise ConfigError(
                f"ledger must be true or false, got {self.ledger!r}"
            )

    def identity(self, spec: bool = False) -> Dict[str, Any]:
        """The options that are part of a result's identity.

        The one rule behind run-cache keys and, with ``spec=True``,
        campaign spec digests.  The window always counts: a windowed
        result carries a series an unwindowed one lacks.  ``ledger``
        counts only when set, so keys predating it stay valid.  The
        backend cannot change results, so no cache key covers it; a
        spec digest covers a named backend as intent, and specs that
        name none keep their journal digests.
        """
        identity: Dict[str, Any] = {"metrics_window": self.metrics_window}
        if self.ledger:
            identity["ledger"] = True
        if spec and self.backend is not None:
            identity["backend"] = self.backend
        return identity


def _policy_cache(policy_name: str) -> Callable[..., SetAssociativeCache]:
    def build(geometry: CacheGeometry, seed: int = 0xACE1,
              tracer: Optional[Tracer] = None,
              **_: object) -> SetAssociativeCache:
        return SetAssociativeCache(
            geometry, make_policy(policy_name), rng=Lfsr(seed=seed),
            tracer=tracer,
        )

    return build


def _build_vway(geometry: CacheGeometry, seed: int = 0xACE1,
                tracer: Optional[Tracer] = None,
                **kwargs: object) -> VwayCache:
    return VwayCache(geometry, rng=Lfsr(seed=seed), tracer=tracer, **kwargs)


def _build_sbc(geometry: CacheGeometry, seed: int = 0xACE1,
               tracer: Optional[Tracer] = None,
               **kwargs: object) -> SbcCache:
    return SbcCache(geometry, rng=Lfsr(seed=seed), tracer=tracer, **kwargs)


def _build_static_sbc(geometry: CacheGeometry, seed: int = 0xACE1,
                      tracer: Optional[Tracer] = None,
                      **kwargs: object) -> StaticSbcCache:
    return StaticSbcCache(
        geometry, rng=Lfsr(seed=seed), tracer=tracer, **kwargs
    )


def _build_rocs(geometry: CacheGeometry, seed: int = 0xACE1,
                tracer: Optional[Tracer] = None,
                **kwargs: object) -> PageColoringCache:
    # ROCS carries no tracepoints yet; the tracer is accepted for a
    # uniform factory signature and simply never receives events.
    return PageColoringCache(geometry, rng=Lfsr(seed=seed), **kwargs)


def _build_victim(geometry: CacheGeometry, seed: int = 0xACE1,
                  tracer: Optional[Tracer] = None,
                  **kwargs: object) -> VictimCache:
    # Victim buffer carries no tracepoints yet; see _build_rocs.
    return VictimCache(geometry, rng=Lfsr(seed=seed), **kwargs)


def _build_stem(geometry: CacheGeometry, seed: int = 0xACE1,
                config: Optional[StemConfig] = None,
                tracer: Optional[Tracer] = None,
                **_: object) -> StemCache:
    return StemCache(
        geometry, config=config, rng=Lfsr(seed=seed), tracer=tracer
    )


_SCHEME_FACTORIES: Dict[str, Callable] = {
    "lru": _policy_cache("lru"),
    "lip": _policy_cache("lip"),
    "bip": _policy_cache("bip"),
    "dip": _policy_cache("dip"),
    "fifo": _policy_cache("fifo"),
    "random": _policy_cache("random"),
    "nru": _policy_cache("nru"),
    "srrip": _policy_cache("srrip"),
    "drrip": _policy_cache("drrip"),
    "pelifo": _policy_cache("pelifo"),
    "v-way": _build_vway,
    "vway": _build_vway,
    "sbc": _build_sbc,
    "staticsbc": _build_static_sbc,
    "static-sbc": _build_static_sbc,
    "rocs": _build_rocs,
    "victim": _build_victim,
    "stem": _build_stem,
}

#: Canonical display names keyed by lower-case factory name.
_DISPLAY_NAMES = {
    "lru": "LRU", "lip": "LIP", "bip": "BIP", "dip": "DIP",
    "fifo": "FIFO", "random": "Random", "nru": "NRU", "srrip": "SRRIP",
    "drrip": "DRRIP", "pelifo": "PeLIFO", "v-way": "V-Way", "vway": "V-Way",
    "sbc": "SBC", "staticsbc": "StaticSBC", "static-sbc": "StaticSBC",
    "rocs": "ROCS", "victim": "Victim", "stem": "STEM",
}


def available_schemes() -> List[str]:
    """Canonical names of every buildable scheme."""
    return sorted({_DISPLAY_NAMES[key] for key in _SCHEME_FACTORIES})


def registry_scheme_keys() -> List[str]:
    """One factory key per distinct scheme, aliases deduplicated.

    Spelling aliases (``vway``/``v-way``, ``static-sbc``/``staticsbc``)
    map to the same display name; the first registered key wins, in
    registration order — the stable iteration set for anything that
    wants to cover *every* scheme exactly once (e.g. the throughput
    recorder).
    """
    keys: List[str] = []
    seen: set = set()
    for key in _SCHEME_FACTORIES:
        display = _DISPLAY_NAMES[key]
        if display not in seen:
            seen.add(display)
            keys.append(key)
    return keys


def canonical_scheme_name(name: str) -> str:
    """Map any accepted spelling to the display name used in tables."""
    key = name.lower()
    if key not in _DISPLAY_NAMES:
        raise ConfigError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
        )
    return _DISPLAY_NAMES[key]


def make_scheme(name: str, geometry: CacheGeometry, seed: int = 0xACE1,
                tracer: Optional[Tracer] = None, **kwargs: object):
    """Instantiate the LLC scheme registered under ``name``.

    ``tracer`` is handed to schemes that carry tracepoints (all of the
    paper's competitors); the build seed is stamped on the returned
    cache as ``cache.seed`` so run manifests can record it.
    """
    factory = _SCHEME_FACTORIES.get(name.lower())
    if factory is None:
        raise ConfigError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
        )
    cache = factory(geometry, seed=seed, tracer=tracer, **kwargs)
    cache.seed = seed
    return cache


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time.

    ``paper()`` mirrors the publication's configuration; ``default()``
    is the laptop-scale setting used by the experiment scripts; and
    ``smoke()`` keeps the benchmark suite fast.
    """

    num_sets: int = 256
    associativity: int = 16
    trace_length: int = 400_000
    warmup_fraction: float = 0.25
    machine: MachineConfig = field(default_factory=MachineConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}"
            )

    def geometry(self, associativity: Optional[int] = None,
                 line_size: int = 64) -> CacheGeometry:
        """The LLC geometry at this scale."""
        return CacheGeometry(
            num_sets=self.num_sets,
            associativity=(
                associativity if associativity is not None
                else self.associativity
            ),
            line_size=line_size,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Table 1's 2 MB / 16-way / 2048-set LLC (slow in pure Python)."""
        return cls(num_sets=2048, associativity=16, trace_length=2_000_000)

    @classmethod
    def default(cls) -> "ExperimentScale":
        """The laptop-scale configuration used by examples/experiments."""
        return cls()

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Small and fast: for tests and pytest-benchmark targets."""
        return cls(num_sets=64, associativity=16, trace_length=60_000)

"""Golden identity pins: cache keys, campaign digests, manifests, traces.

Every other identity test checks that a key *changes* when an input
changes.  These pin the exact hex values, so a refactor of how run
options are threaded (or of where the identity rule lives) cannot
silently invalidate stored run caches, campaign journals or manifests.

Cells are reached through the campaign spec front end and the bare
:class:`~repro.sim.parallel.CellSpec` constructor — both spellings are
stable across API reshuffles, so the same file checks any revision.
The values embed the package version (part of every manifest's hashed
payload), so a version bump must re-pin them deliberately.  The trace
digests do not: they pin the synthesised access streams themselves.
"""

import json

import pytest

from repro._version import __version__
from repro.cache.geometry import CacheGeometry
from repro.sim.campaign import build_cells, load_campaign_spec
from repro.sim.config import make_scheme
from repro.sim.parallel import CellSpec, cell_cache_key
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

BASE = {
    "name": "pins",
    "schemes": ["stem"],
    "benchmarks": ["mcf"],
    "geometries": [{"sets": 16, "assoc": 4}],
    "seeds": [7],
    "trace_length": 3_000,
}

GEOMETRY = CacheGeometry(num_sets=16, associativity=4, line_size=64)

DEFAULT_KEY = (
    "9cf2bf8a888ba30c13fa9921cc8a110df82c73b8f398b4b9a4af571602808c34"
)

CELL_KEYS = {
    "default": ({}, DEFAULT_KEY),
    "metrics_window": (
        {"metrics_window": 500},
        "f2ccb4b9c4675699a76556069638425c0c48424b57df3889bbffee0ec3079d6b",
    ),
    "ledger": (
        {"ledger": True},
        "262d66329bb6365b7f3fbea14365d6c86bafb5312fc630820871e6211122b2d4",
    ),
    "fault_plan": (
        {"fault_plans": ["sc_s:2"]},
        "bbc0bd01e135d5c75ebd93b8f8698c2e73c2ee4128742abee7ca47958d53dcb2",
    ),
    # The backend never enters a cell's identity: results are
    # interchangeable across execution paths (DESIGN.md §13).
    "backend": ({"backend": "numpy"}, DEFAULT_KEY),
}

SPEC_DIGESTS = {
    "plain": (
        {},
        "08dcb80e2b1c028a88173772a7d4a120118bb065868df9b7408f3d62c096bdeb",
    ),
    "backend": (
        {"backend": "python"},
        "bfa567fb179693699fd842f5ccc6d26f9c0dbf7abf128b4650fb4d1c653d0d8f",
    ),
    "ledger": (
        {"ledger": True},
        "940a5beafe6578ec8a49ba6f66d5e62f545e2d3af8cca00745a7552b2bc7e1a6",
    ),
}

MANIFEST_HASH = (
    "875620f1b8d6498ddb93f6d3072e807f690e240bcabdba762a7147956a557233"
)

#: ``make_benchmark_trace(name, num_sets=256, length=20_000)`` content
#: digests, the trace shape perfbench synthesises.  They guard trace
#: generator work: every run-cache key and manifest hashes these bytes.
TRACE_DIGESTS = {
    "ammp":
        "562287a41f7ea49cd75807c8c1738c812b686431b935b2d64b498040e56169e2",
    "apsi":
        "0cd90abb93f463ec542fc0eab7c5d9c31f9f74aa6035133d0c2f83065161e652",
    "astar":
        "ad60e719445f1afac45f991b607ab04f7337252287bf604293505f981a283ab2",
    "omnetpp":
        "d766cfb7c530b5b02efd09cd4405e3872ed229273bf2f072b8cbf78299f2d21e",
    "xalancbmk":
        "740436b0bb1d7d7105841b25a0f612e046c4b7ce9aec7e438039df73051ce9b5",
    "art":
        "e3fc3e8308a048de0ecc42a87a3ad6ff432a04232037a50134a53f5fba5e6da2",
    "cactusADM":
        "9c73c8493e76c11f0e2df58e5856d0c36f6ef413c5edf44b1a1f4eac7916ceb9",
    "galgel":
        "f17de01bc56b6bd05dd75bbf4f276ca22ca6ad754f1239893fc7a4833ac22dfe",
    "mcf":
        "40a57b973f193d916d51bc9ab95c86b21158e40d32eec02146264858dfbf4c3b",
    "sphinx3":
        "4549bc209ae8b313250cdb888b0249f51f9a18ed8d13966017e095407510dfc4",
    "gobmk":
        "b823f0623762c6b4f4b02e5b04dd496c9ae48797d6de7bdc684aeed645263b49",
    "gromacs":
        "cf3592feadd173ecd0ed690d5dc288fc9101e8fa0f1d1bffa0b7b658a462cbe5",
    "soplex":
        "61f034e68c7985dea470199c22d3dcd565f23fb8a76805136ce1500f5db8b94e",
    "twolf":
        "8328b0e43f7277d95eff4da1dd74d4ef9640382660ea3f7be093c8ac0bdc900b",
    "vpr":
        "14021e402f02be94b3a345e77e0cf833b93b646be75dee82c14ac4183a7fa5ec",
}


def load_spec(tmp_path, **extra):
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(dict(BASE, **extra)), encoding="utf-8")
    return load_campaign_spec(path)


def test_pins_are_for_this_version():
    assert __version__ == "1.9.0"


@pytest.mark.parametrize("variant", sorted(CELL_KEYS))
def test_cell_cache_key_pinned(tmp_path, variant):
    extra, expected = CELL_KEYS[variant]
    (cell,) = build_cells(load_spec(tmp_path, **extra))
    assert cell_cache_key(cell.spec) == expected


def test_bare_cell_spec_key_pinned():
    spec = CellSpec(
        index=0, scheme="stem", label="STEM",
        trace=make_benchmark_trace("mcf", num_sets=16, length=3_000),
        geometry=GEOMETRY, seed=7,
    )
    assert cell_cache_key(spec) == DEFAULT_KEY


@pytest.mark.parametrize("variant", sorted(SPEC_DIGESTS))
def test_campaign_digest_pinned(tmp_path, variant):
    extra, expected = SPEC_DIGESTS[variant]
    assert load_spec(tmp_path, **extra).digest() == expected


def test_manifest_content_hash_pinned():
    trace = make_benchmark_trace("mcf", num_sets=16, length=3_000)
    result = run_trace(make_scheme("stem", GEOMETRY, seed=7), trace)
    assert result.manifest.content_hash == MANIFEST_HASH


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_benchmark_trace_digest_pinned(name):
    trace = make_benchmark_trace(name, num_sets=256, length=20_000)
    assert trace.content_digest() == TRACE_DIGESTS[name]

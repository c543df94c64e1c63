"""Golden identity pins: run-cache keys, campaign digests, manifest hashes.

Every other identity test checks that a key *changes* when an input
changes.  These pin the exact hex values, so a refactor of how run
options are threaded (or of where the identity rule lives) cannot
silently invalidate stored run caches, campaign journals or manifests.

Cells are reached through the campaign spec front end and the bare
:class:`~repro.sim.parallel.CellSpec` constructor — both spellings are
stable across API reshuffles, so the same file checks any revision.
The values embed the package version (part of every manifest's hashed
payload), so a version bump must re-pin them deliberately.
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

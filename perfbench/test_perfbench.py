"""Self-tests for the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- BENCHMARK.json naming rules ----------------------------------------


def test_benchmark_json_keeps_the_rules():
    bench.validate_spec(load_spec())


@pytest.mark.parametrize("name", [
    "bad name", "slash/name", "-leading", "", "x" * 65, "per%cent",
])
def test_metric_name_rule_rejects(name):
    spec = load_spec()
    spec["per_layer"][0]["name"] = name
    with pytest.raises(ValueError, match="bad name"):
        bench.validate_spec(spec)


def test_metric_name_rule_accepts_dots_dashes_underscores():
    spec = load_spec()
    spec["per_layer"][0]["name"] = "a.b-c_d.9"
    bench.validate_spec(spec)


def test_metric_names_are_used_once():
    spec = load_spec()
    spec["per_layer"][1]["name"] = spec["end_to_end"][0]["name"]
    with pytest.raises(ValueError, match="twice"):
        bench.validate_spec(spec)


@pytest.mark.parametrize("key,count", [
    ("per_layer", 129), ("per_layer", 0), ("end_to_end", 17),
    ("end_to_end", 0), ("workloads", 1), ("workloads", 9),
])
def test_metric_count_limits(key, count):
    spec = load_spec()
    template = spec[key][0]
    spec[key] = [dict(template, name=f"m{i}") for i in range(count)]
    with pytest.raises(ValueError, match=key):
        bench.validate_spec(spec)


def test_bad_unit_is_rejected():
    spec = load_spec()
    spec["end_to_end"][0]["unit"] = "sec onds"
    with pytest.raises(ValueError, match="unit"):
        bench.validate_spec(spec)


def test_runner_reports_exactly_the_declared_per_layer_metrics():
    spec = load_spec()
    traced = bench.TracedPass(
        wall_s=1.0, spans=bench.Spans(), results=[], cell_seconds=[],
        simulated=[], numpy_cells=0, cache_hits=0, cache_misses=0,
        cache_bytes=0,
    )
    values = bench.layer_metrics(traced, timed_wall_s=1.0, workers=2,
                                 error_rate=0.0)
    assert set(values) == {m["name"] for m in spec["per_layer"]}


# -- percentile rule ----------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert bench.tail_percentile(list(range(1, 101))) == (90, 90)
    # 90 cells (the paper grid): p88 leaves 10 beyond, p89 only 9.
    pct, value = bench.tail_percentile([float(i) for i in range(90)])
    assert (pct, value) == (88, 79.0)


def test_tail_is_order_independent():
    samples = [float(i) for i in range(200)]
    assert bench.tail_percentile(samples[::-1]) == (95, 189.0)


def test_tail_falls_back_to_median_for_small_samples():
    assert bench.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0)
    assert bench.tail_percentile([float(i) for i in range(15)]) == (50, 7.0)
    assert bench.tail_percentile([]) == (0, 0.0)


# -- outcome digest ----------------------------------------------------


def _small_result(seed: int = 0xACE1):
    from repro.cache.geometry import CacheGeometry
    from repro.sim.config import make_scheme
    from repro.sim.simulator import run_trace
    from repro.workloads.spec_like import make_benchmark_trace

    trace = make_benchmark_trace("vpr", num_sets=16, length=3000)
    cache = make_scheme("STEM", CacheGeometry(16, 4), seed=seed)
    return run_trace(cache, trace)


def test_outcome_digest_ignores_host_timings():
    first = _small_result()
    second = _small_result()
    assert bench.outcome_digest([first]) == bench.outcome_digest([second])
    retimed = dataclasses.replace(
        first,
        manifest=dataclasses.replace(first.manifest, warmup_seconds=123.0,
                                     measured_seconds=456.0),
    )
    assert bench.outcome_digest([retimed]) == bench.outcome_digest([first])


def test_outcome_digest_sees_outcomes_and_failures():
    result = _small_result()
    stats = copy.deepcopy(result.stats)
    stats.misses += 1
    changed = dataclasses.replace(result, stats=stats)
    base = bench.outcome_digest([result])
    assert bench.outcome_digest([changed]) != base
    assert bench.outcome_digest([None]) != base
    assert bench.outcome_digest([result, result]) != base


def test_outcome_digest_survives_run_cache_round_trip():
    from repro.sim.cache import result_from_dict, result_to_dict

    result = _small_result()
    loaded = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    assert bench.outcome_digest([loaded]) == bench.outcome_digest([result])


def test_pinned_cached_rerun_digest_is_paper_grids():
    pinned = json.loads((HERE / "pinned.json").read_text())["digests"]
    assert set(pinned) == set(bench.WORKLOADS)
    assert pinned["cached-rerun"] == pinned["paper-grid"]


# -- seeds --------------------------------------------------------------


def test_workload_seed_changes_trace_content():
    first = bench.synthesize(0)
    again = bench.synthesize(0)
    other = bench.synthesize(1)
    for a, b, c in zip(first, again, other):
        assert a.content_digest() == b.content_digest()
        assert a.content_digest() != c.content_digest()


def test_scheme_seed_is_a_valid_lfsr_seed():
    assert bench.scheme_seed(0) == 0xACE1
    seeds = {bench.scheme_seed(s) for s in range(0, 3 * 0xFFFF, 997)}
    assert all(1 <= s <= 0xFFFF for s in seeds)
    assert bench.scheme_seed(1) != bench.scheme_seed(0)


# -- no-numpy environments -------------------------------------------


def test_runner_works_without_numpy(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\nsys.modules['numpy'] = None\n")
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lru-grid",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    fingerprint = json.loads(
        next(l for l in lines if l.startswith("fingerprint "))
        .split(" ", 1)[1])
    assert fingerprint["numpy"] == "absent"
    assert set(fingerprint["backends"].values()) == {"python"}
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["columnar.cells"]["value"] == 0

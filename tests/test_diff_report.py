"""Tests for run differencing and the HTML report.

The load-bearing properties: ``diff_results`` output is byte-stable and
degrades gracefully (missing series, mismatched windows), the top-k
divergence ranking is deterministic, and ``render_run_html`` produces a
self-contained page — non-empty, no network references, byte-identical
across invocations.
"""

import json

import pytest

from repro.obs.diff import diff_results, sparkline
from repro.obs.htmlreport import diff_to_html, render_run_html
from repro.sim.cache import load_run, save_run
from repro.sim.config import ExperimentScale, RunOptions, make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=12_000)


def run(scheme, benchmark="mcf", window=2_000, seed=7):
    trace = make_benchmark_trace(
        benchmark, num_sets=SCALE.num_sets, length=SCALE.trace_length
    )
    cache = make_scheme(scheme, SCALE.geometry(), seed=seed)
    return run_trace(cache, trace, options=RunOptions(metrics_window=window))


@pytest.fixture(scope="module")
def run_pair():
    return run("lru"), run("stem")


class TestDiff:
    def test_scalars_cover_counters_and_paper_metrics(self, run_pair):
        a, b = run_pair
        diff = diff_results(a, b)
        names = {d.name for d in diff.scalars}
        assert {"misses", "mpki", "amat", "cpi", "miss_rate"} <= names
        by_name = {d.name: d for d in diff.scalars}
        assert by_name["misses"].delta == \
            b.stats.misses - a.stats.misses
        assert by_name["accesses"].delta == 0

    def test_render_is_byte_stable(self, run_pair):
        a, b = run_pair
        first = diff_results(a, b).render()
        second = diff_results(a, b).render()
        assert first == second
        assert first.endswith("\n")
        assert "run diff: A = LRU on mcf" in first

    def test_series_window_aligned(self, run_pair):
        a, b = run_pair
        diff = diff_results(a, b)
        assert diff.window_length == 2_000
        assert diff.num_windows == min(
            a.series.num_windows, b.series.num_windows
        )
        for series_a, series_b in diff.series.values():
            assert len(series_a) == len(series_b) == diff.num_windows

    def test_top_k_sets_ranked_by_divergence(self, run_pair):
        a, b = run_pair
        diff = diff_results(a, b, top_k=5)
        assert len(diff.top_sets) == 5
        deltas = [abs(s.delta) for s in diff.top_sets]
        assert deltas == sorted(deltas, reverse=True)
        assert len({s.set_index for s in diff.top_sets}) == 5

    def test_missing_series_degrades_to_note(self):
        bare_a = run_trace(
            make_scheme("lru", SCALE.geometry(), seed=7),
            make_benchmark_trace("mcf", num_sets=64, length=6_000),
        )
        windowed_b = run("stem")
        diff = diff_results(bare_a, windowed_b)
        assert diff.series == {}
        assert "A" in diff.series_note
        assert diff.sets_note is not None
        # Scalars still diff, and render still works.
        assert "scalar metrics" in diff.render()

    def test_mismatched_windows_degrade_to_note(self):
        diff = diff_results(run("lru", window=1_000), run("stem"))
        assert diff.series == {}
        assert "window lengths differ" in diff.series_note

    def test_as_dict_json_serialisable(self, run_pair):
        a, b = run_pair
        payload = diff_results(a, b).as_dict()
        round_tripped = json.loads(json.dumps(payload, sort_keys=True))
        assert round_tripped["label_b"] == "STEM on mcf"
        assert round_tripped["top_sets"]

    def test_file_based_diff_matches_in_process(self, tmp_path, run_pair):
        a, b = run_pair
        save_run(tmp_path / "a.json", a)
        save_run(tmp_path / "b.json", b)
        from_files = diff_results(
            load_run(tmp_path / "a.json"), load_run(tmp_path / "b.json")
        )
        assert from_files.render() == diff_results(a, b).render()

    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        strip = sparkline([0.0, 0.5, 1.0])
        assert len(strip) == 3
        assert strip[0] == "▁" and strip[-1] == "█"


class TestHtmlReport:
    def test_single_run_page(self, run_pair):
        _, b = run_pair
        html = render_run_html(b)
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        assert "STEM on mcf" in html
        assert "<svg" in html          # sparklines
        assert "<rect" in html         # heatmap
        assert "Per-set occupancy" in html

    def test_self_contained_no_network(self, run_pair):
        a, b = run_pair
        for html in (render_run_html(a), diff_to_html(a, b)):
            lowered = html.lower()
            assert "http" not in lowered
            assert "<script" not in lowered
            assert "<link" not in lowered
            assert "@import" not in lowered
            assert 'src="' not in lowered

    def test_byte_stable(self, run_pair):
        a, b = run_pair
        assert render_run_html(a, b) == render_run_html(a, b)
        assert diff_to_html(a, b) == diff_to_html(a, b)

    def test_ab_page_has_both_runs(self, run_pair):
        a, b = run_pair
        html = diff_to_html(a, b)
        assert "LRU on mcf" in html and "STEM on mcf" in html
        # Two heatmaps (A and B) and the text-diff appendix.
        assert html.count("Per-set occupancy") == 2
        assert "Text diff" in html
        assert html.count("</html>") == 1

    def test_run_without_series_still_renders(self):
        bare = run_trace(
            make_scheme("lru", SCALE.geometry(), seed=7),
            make_benchmark_trace("mcf", num_sets=64, length=6_000),
        )
        html = render_run_html(bare)
        assert "no windowed series" in html
        assert "<rect" not in html

    def test_large_geometry_heatmap_is_bucketed(self):
        trace = make_benchmark_trace("mcf", num_sets=256, length=12_000)
        scale = ExperimentScale(
            num_sets=256, associativity=16, trace_length=12_000
        )
        cache = make_scheme("stem", scale.geometry(), seed=7)
        result = run_trace(
            cache, trace, options=RunOptions(metrics_window=500)
        )
        html = render_run_html(result)
        # 256 sets x 18 windows bucket down to <= 64 rows.
        assert html.count("<rect") <= 64 * 128

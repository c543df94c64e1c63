"""Tests for the HTTP observatory (DESIGN.md §15).

The server runs in-process on an ephemeral port; requests go through
``urllib``.  The load-bearing properties: every endpoint answers, the
static bodies (``/metrics``, ``/api/runs``, run pages) are
byte-identical across requests, unknown resources 404, untrusted
scheme/benchmark names never reach HTML pages unescaped, and the
exposition carries HELP/TYPE lines plus run/scheme/benchmark labels.
"""

import dataclasses
import json
import threading
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.obs.htmlreport import render_campaign_html, render_run_html
from repro.obs.server import create_server
from repro.sim.cache import save_run
from repro.sim.config import ExperimentScale, RunOptions, make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=12_000)

NASTY = '<script>alert("x")</script>'


def run(scheme, benchmark="mcf", window=2_000, seed=7):
    trace = make_benchmark_trace(
        benchmark, num_sets=SCALE.num_sets, length=SCALE.trace_length
    )
    cache = make_scheme(scheme, SCALE.geometry(), seed=seed)
    return run_trace(cache, trace, options=RunOptions(metrics_window=window))


@pytest.fixture(scope="module")
def observatory(tmp_path_factory):
    """A server over a static run dir: two runs, one hostile name."""
    run_dir = tmp_path_factory.mktemp("observatory")
    a = run("lru")
    b = run("stem")
    hostile = dataclasses.replace(
        a, scheme=NASTY, manifest=None, ledger=None
    )
    save_run(run_dir / "a.json", a)
    save_run(run_dir / "b.json", b)
    save_run(run_dir / "hostile.json", hostile)
    server = create_server(run_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        server.index.close()
        thread.join(timeout=5)


def get(base, path):
    with urlopen(base + path) as response:
        return response.status, response.read()


class TestEndpoints:
    def test_healthz(self, observatory):
        status, body = get(observatory, "/healthz")
        assert status == 200
        assert body == b"ok\n"

    def test_unknown_path_404(self, observatory):
        with pytest.raises(HTTPError) as err:
            get(observatory, "/nope")
        assert err.value.code == 404

    def test_api_runs_lists_all(self, observatory):
        _, body = get(observatory, "/api/runs")
        runs = json.loads(body)
        assert len(runs) == 3
        assert {r["scheme"] for r in runs} == {"LRU", "STEM", NASTY}

    def test_api_run_by_hash_and_prefix(self, observatory):
        _, body = get(observatory, "/api/runs")
        digest = json.loads(body)[0]["hash"]
        status, one = get(observatory, f"/api/runs/{digest[:12]}")
        assert status == 200
        assert json.loads(one)["hash"] == digest

    def test_api_run_unknown_hash_404(self, observatory):
        with pytest.raises(HTTPError) as err:
            get(observatory, "/api/runs/" + "0" * 64)
        assert err.value.code == 404

    def test_api_status_is_fleet_schema(self, observatory):
        _, body = get(observatory, "/api/status")
        status = json.loads(body)
        assert set(status) >= {
            "run_dir", "counts", "cells", "finished", "total_cells",
        }

    def test_api_regressions_document(self, observatory):
        _, body = get(observatory, "/api/regressions")
        document = json.loads(body)
        assert document["regressed"] == []
        assert document["entries"] == 0

    def test_metrics_exposition(self, observatory):
        _, body = get(observatory, "/metrics")
        text = body.decode("utf-8")
        assert "# HELP repro_misses" in text
        assert "# TYPE repro_misses counter" in text
        assert 'benchmark="mcf"' in text
        assert 'scheme="STEM"' in text
        # Every sample is tied to its originating run.
        assert 'run="' in text

    def test_run_page_matches_cli_renderer(self, observatory):
        _, body = get(observatory, "/api/runs")
        runs = json.loads(body)
        stem = next(r for r in runs if r["scheme"] == "STEM")
        _, page = get(observatory, f"/runs/{stem['hash']}")
        assert page.decode("utf-8") == render_run_html(run("stem"))

    def test_front_and_fleet_pages(self, observatory):
        for path in ("/", "/fleet"):
            status, body = get(observatory, path)
            assert status == 200
            assert body.decode("utf-8").startswith("<!DOCTYPE html>")


class TestDeterminism:
    @pytest.mark.parametrize(
        "path", ["/healthz", "/metrics", "/api/runs", "/", "/fleet",
                 "/api/regressions", "/api/campaigns"]
    )
    def test_static_bodies_are_byte_identical(self, observatory, path):
        _, first = get(observatory, path)
        _, second = get(observatory, path)
        assert first == second

    def test_run_page_is_byte_identical(self, observatory):
        _, body = get(observatory, "/api/runs")
        digest = json.loads(body)[0]["hash"]
        _, first = get(observatory, f"/runs/{digest}")
        _, second = get(observatory, f"/runs/{digest}")
        assert first == second


class TestEscaping:
    """Untrusted names must never reach markup unescaped."""

    def test_front_page_escapes_scheme_names(self, observatory):
        _, body = get(observatory, "/")
        text = body.decode("utf-8")
        assert NASTY not in text
        assert "&lt;script&gt;" in text

    def test_run_page_escapes_scheme_names(self, observatory):
        _, body = get(observatory, "/api/runs")
        hostile = next(
            r for r in json.loads(body) if r["scheme"] == NASTY
        )
        _, page = get(observatory, f"/runs/{hostile['hash']}")
        text = page.decode("utf-8")
        assert NASTY not in text
        assert "&lt;script&gt;" in text

    def test_render_run_html_escapes_names(self):
        hostile = dataclasses.replace(
            run("lru"), scheme=NASTY, manifest=None, ledger=None
        )
        text = render_run_html(hostile)
        assert NASTY not in text
        assert "&lt;script&gt;" in text

    def test_render_campaign_html_escapes_names(self):
        text = render_campaign_html(
            name=NASTY,
            total_cells=1,
            mpki={NASTY: {NASTY: 1.0}},
            schemes=[NASTY],
            quarantined=[{
                "cell": 0, "id": NASTY, "error_type": NASTY,
                "message": NASTY, "attempts": 1,
            }],
        )
        assert NASTY not in text
        assert "&lt;script&gt;" in text

"""Tests for the grid runner's reporting paths (DESIGN.md §9, §11, §12).

Every grid cell is reported through one observer list: the campaign
journal, the fleet telemetry channel and any caller's observer see the
same ``grid_started`` / ``cell_started`` / ``cell_finished`` /
``grid_finished`` calls.  These tests pin what each channel writes
(``grid.jsonl`` and the campaign journal), the hook contract itself,
the one fleet-document serialisation behind ``status.json``,
``/api/status`` and ``repro top --json``, and concurrent use of one
run-cache directory.
"""

import json
import multiprocessing
import threading
from collections import Counter
from types import SimpleNamespace
from urllib.request import urlopen

import pytest

import repro.obs.fleet as fleet
from repro.cli import main
from repro.common.io import read_jsonl
from repro.obs.server import create_server
from repro.sim.cache import RunCache
from repro.sim.campaign import build_cells, load_campaign_spec, run_campaign
from repro.sim.config import ExperimentScale
from repro.sim.parallel import (
    CellObserver,
    CellSpec,
    ParallelRunner,
    cell_cache_key,
)
from repro.sim.results import ResultMatrix
from repro.sim.runner import run_benchmarks
from repro.workloads.spec_like import make_benchmark_trace
from tests.test_parallel import _matrix_fingerprint

SCALE = ExperimentScale(num_sets=64, associativity=8, trace_length=6_000)
SCHEMES = ["lru", "stem"]
BENCHMARKS = ["vpr", "mcf"]


def grid(**kwargs):
    return run_benchmarks(SCHEMES, benchmarks=BENCHMARKS, scale=SCALE,
                          **kwargs)


# ----------------------------------------------------------------------
# The hook contract
# ----------------------------------------------------------------------

class Recorder(CellObserver):
    """Records every hook call, in call order."""

    def __init__(self):
        self.calls = []

    def grid_started(self, specs):
        self.calls.append(("grid_started", len(specs)))

    def cell_started(self, spec):
        self.calls.append(("cell_started", spec.index))

    def cell_finished(self, spec, outcome, cached, key):
        self.calls.append(("cell_finished", spec.index, cached, key))

    def grid_finished(self):
        self.calls.append(("grid_finished",))


def grid_specs():
    """The grid's cells, in the order ``run_benchmarks`` builds them."""
    traces = [
        make_benchmark_trace(name, num_sets=SCALE.num_sets,
                             length=SCALE.trace_length)
        for name in BENCHMARKS
    ]
    pairs = [(trace, scheme) for trace in traces for scheme in SCHEMES]
    return [
        CellSpec(index=index, scheme=scheme, label=scheme, trace=trace,
                 geometry=SCALE.geometry(), seed=0xACE1,
                 warmup_fraction=SCALE.warmup_fraction,
                 machine=SCALE.machine)
        for index, (trace, scheme) in enumerate(pairs)
    ]


class TestHookContract:
    def _observed(self, tmp_path, workers, telemetry):
        """Run the grid with half its cells already in the run cache."""
        specs = grid_specs()
        cache = RunCache(tmp_path / f"cache-{workers}")
        warm = [spec for spec in specs if spec.scheme == "lru"]
        ParallelRunner(run_cache=cache).run(warm)
        recorder = Recorder()
        outcomes = ParallelRunner(
            max_workers=workers, run_cache=cache, observer=recorder,
            telemetry_dir=tmp_path / f"fleet-{workers}" if telemetry
            else None,
        ).run(specs)
        matrix = ResultMatrix()
        for outcome in outcomes:
            matrix.add(outcome)
        return specs, recorder.calls, matrix

    @pytest.mark.parametrize("workers,telemetry",
                             [(1, False), (2, False), (2, True)])
    def test_one_call_per_event(self, tmp_path, workers, telemetry):
        specs, calls, _ = self._observed(tmp_path, workers, telemetry)
        assert calls[0] == ("grid_started", len(specs))
        assert calls[-1] == ("grid_finished",)
        assert Counter(call[0] for call in calls) == {
            "grid_started": 1, "grid_finished": 1,
            "cell_started": 2, "cell_finished": len(specs),
        }
        for spec in specs:
            mine = [call for call in calls[1:-1] if call[1] == spec.index]
            key = cell_cache_key(spec)
            if spec.scheme == "lru":
                assert mine == [("cell_finished", spec.index, True, key)]
            else:
                assert mine == [
                    ("cell_started", spec.index),
                    ("cell_finished", spec.index, False, key),
                ]

    def test_same_calls_and_matrix_at_any_worker_count(self, tmp_path):
        _, serial_calls, serial = self._observed(tmp_path, 1, False)
        _, pool_calls, pooled = self._observed(tmp_path, 2, True)
        assert Counter(serial_calls) == Counter(pool_calls)
        unobserved = _matrix_fingerprint(grid())
        assert _matrix_fingerprint(serial) == unobserved
        assert _matrix_fingerprint(pooled) == unobserved

    def test_grid_finished_runs_when_the_grid_raises(self):
        class Exploding(Recorder):
            def cell_finished(self, *args):
                super().cell_finished(*args)
                raise RuntimeError("observer failed")

        recorder = Exploding()
        with pytest.raises(RuntimeError, match="observer failed"):
            ParallelRunner(observer=recorder).run(grid_specs()[:2])
        assert [call[0] for call in recorder.calls] == [
            "grid_started", "cell_started", "cell_finished",
            "grid_finished",
        ]


# ----------------------------------------------------------------------
# What each channel writes
# ----------------------------------------------------------------------

class TestGridChannel:
    """``grid.jsonl`` of a cold and a warm run against one run cache."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_then_warm_records(self, tmp_path, workers):
        cache = RunCache(tmp_path / "cache")
        cells = len(SCHEMES) * len(BENCHMARKS)
        for run, final in (("cold", ("cell_done", "ok")),
                           ("warm", ("cell_cached", None))):
            grid(run_cache=cache, max_workers=workers,
                 telemetry_dir=tmp_path / run)
            records = [
                record for _, record in
                read_jsonl(tmp_path / run / "grid.jsonl")[0]
            ]
            kinds = [record["kind"] for record in records]
            assert kinds[0] == "grid_start"
            assert records[0]["total_cells"] == cells
            assert kinds[-1] == "grid_end"
            assert kinds.count("grid_start") == kinds.count("grid_end") == 1
            for index in range(cells):
                mine = [
                    (position, record)
                    for position, record in enumerate(records)
                    if record.get("cell") == index
                ]
                assert [record["kind"] for _, record in mine] == [
                    "cell_plan", final[0]
                ], (run, index)
                plan, last = mine[0][1], mine[-1][1]
                assert plan["total_accesses"] == SCALE.trace_length
                assert last.get("status") == final[1]
        assert (cache.hits, cache.misses) == (cells, cells)


class TestJournalChannel:
    """The campaign journal's per-cell records, timing digests aside."""

    SPEC = {
        "name": "pins",
        "schemes": SCHEMES,
        "benchmarks": BENCHMARKS,
        "geometries": [{"sets": 64, "assoc": 8}],
        "trace_length": 6_000,
    }

    @staticmethod
    def _journal(directory):
        records, bad = read_jsonl(directory / "campaign.jsonl")
        assert not bad
        return [
            tuple(record.get(field)
                  for field in ("kind", "cell", "id", "key", "cached"))
            for _, record in records
        ]

    def test_executed_resumed_and_cached_sequences(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC), encoding="utf-8")
        cells = build_cells(load_campaign_spec(spec_path))
        keys = [cell_cache_key(cell.spec) for cell in cells]
        assert all(keys)
        directory = tmp_path / "campaign"
        cache_dir = tmp_path / "runcache"

        run_campaign(spec_path, directory=directory, jobs=1,
                     run_cache_dir=cache_dir)
        executed = [("campaign_start", None, None, None, None)]
        for cell, key in zip(cells, keys):
            index = cell.spec.index
            executed.append(("cell_start", index, cell.cell_id, None, None))
            executed.append(("cell_done", index, cell.cell_id, key, False))
        executed.append(("campaign_end", None, None, None, None))
        assert self._journal(directory) == executed

        # Resuming a finished campaign runs nothing.
        run_campaign(spec_path, directory=directory, jobs=1,
                     run_cache_dir=cache_dir)
        resumed = executed + [
            ("campaign_resume", None, None, None, None),
            ("campaign_end", None, None, None, None),
        ]
        assert self._journal(directory) == resumed

        # A fresh journal over a warm run cache: every cell is a hit.
        run_campaign(spec_path, directory=directory, jobs=2, fresh=True,
                     run_cache_dir=cache_dir)
        cached = [("campaign_start", None, None, None, None)]
        cached += [
            ("cell_done", cell.spec.index, cell.cell_id, key, True)
            for cell, key in zip(cells, keys)
        ]
        cached.append(("campaign_end", None, None, None, None))
        assert self._journal(directory) == cached


# ----------------------------------------------------------------------
# The fleet document
# ----------------------------------------------------------------------

class TestFleetDocument:
    def test_three_surfaces_serialise_identically(
        self, tmp_path, monkeypatch, capsys
    ):
        run_dir = tmp_path / "fleet"
        grid(telemetry_dir=run_dir)
        # Pin the observation clock so the three reads agree on
        # observed_at and every event age.
        frozen = json.loads((run_dir / "status.json").read_text())
        monkeypatch.setattr(
            fleet, "time",
            SimpleNamespace(time=lambda: frozen["observed_at"] + 100.0),
        )

        assert main(["top", str(run_dir), "--once"]) == 0
        written = (run_dir / "status.json").read_bytes()
        capsys.readouterr()
        assert main(["top", str(run_dir), "--json"]) == 0
        printed = capsys.readouterr().out.encode("utf-8")

        server = create_server(run_dir)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.port}/api/status"
            with urlopen(url) as response:
                served = response.read()
        finally:
            server.shutdown()
            server.server_close()
            server.index.close()
            thread.join(timeout=5)

        assert written == printed == served
        document = json.loads(written)
        assert document["finished"] is True
        assert document["counts"]["done"] == len(SCHEMES) * len(BENCHMARKS)


# ----------------------------------------------------------------------
# One run-cache directory, two grid processes
# ----------------------------------------------------------------------

def _grid_process(cache_dir, barrier, results):
    barrier.wait(timeout=60)
    results.put(_matrix_fingerprint(grid(run_cache=RunCache(cache_dir))))


def test_concurrent_grids_share_one_run_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    results = context.Queue()
    processes = [
        context.Process(target=_grid_process,
                        args=(cache_dir, barrier, results))
        for _ in range(2)
    ]
    for process in processes:
        process.start()
    fingerprints = [results.get(timeout=300) for _ in processes]
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0] == _matrix_fingerprint(grid())
    assert not list(cache_dir.rglob("*.corrupt"))
    cache = RunCache(cache_dir)
    entries = sorted(cache_dir.glob("*/*.json"))
    assert len(entries) == len(SCHEMES) * len(BENCHMARKS)
    for entry in entries:
        assert cache.get(entry.stem) is not None
    assert (cache.hits, cache.misses, cache.corrupt_entries) == (
        len(entries), 0, 0,
    )

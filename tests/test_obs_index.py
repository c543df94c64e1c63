"""Tests for the SQLite artifact index (DESIGN.md §15).

The load-bearing properties: ingestion is idempotent (re-ingesting the
same artifacts changes zero rows), every artifact family lands in its
table (save_run files, campaign directories, bench ledgers), torn
journal tails are tolerated, and the query surface returns
deterministic sorted documents suitable for byte-stable JSON.
"""

import json

import pytest

from repro.cli import main
from repro.obs.benchhistory import append_history, make_entry
from repro.obs.index import ArtifactIndex
from repro.sim.cache import save_run
from repro.sim.campaign import run_campaign
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


def history_entry(rates, recorded_at):
    return make_entry(
        {
            name: {"accesses_per_sec": rate, "manifest_hash": f"h-{name}"}
            for name, rate in rates.items()
        },
        recorded_at=recorded_at,
    )


CAMPAIGN_SPEC = {
    "name": "small",
    "schemes": ["lru", "stem"],
    "benchmarks": ["mcf"],
    "geometries": [{"sets": 64, "assoc": 8}],
    "trace_length": 6_000,
}


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(CAMPAIGN_SPEC), encoding="utf-8")
    return path


class TestRunIngestion:
    def test_save_run_file_lands_in_runs_table(self, tmp_path, run_pair):
        a, _ = run_pair
        path = tmp_path / "a.json"
        save_run(path, a)
        with ArtifactIndex(":memory:") as index:
            report = index.ingest(path)
            assert report.runs_added == 1
            assert report.changed == 1
            (record,) = index.runs()
        assert record["scheme"] == "LRU"
        assert record["benchmark"] == "mcf"
        assert record["mpki"] == pytest.approx(a.mpki)
        assert record["manifest_hash"] == a.manifest.content_hash
        assert record["source"] == str(path)

    def test_reingest_changes_zero_rows(self, tmp_path, run_pair):
        a, b = run_pair
        save_run(tmp_path / "a.json", a)
        save_run(tmp_path / "b.json", b)
        with ArtifactIndex(":memory:") as index:
            assert index.ingest(tmp_path).changed == 2
            again = index.ingest(tmp_path)
            assert again.changed == 0
            assert again.runs_unchanged == 2
            assert len(index.runs()) == 2

    def test_directory_scan_skips_non_run_json(self, tmp_path, run_pair):
        a, _ = run_pair
        save_run(tmp_path / "a.json", a)
        (tmp_path / "status.json").write_text("{}", encoding="utf-8")
        (tmp_path / "junk.json").write_text("not json", encoding="utf-8")
        with ArtifactIndex(":memory:") as index:
            report = index.ingest(tmp_path)
            assert report.runs_added == 1
            # Scanned children fail silently; nothing is reported.
            assert report.skipped == []

    def test_explicit_bad_path_is_reported_not_raised(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}", encoding="utf-8")
        with ArtifactIndex(":memory:") as index:
            report = index.ingest(bogus, tmp_path / "absent.json")
            assert report.changed == 0
            assert len(report.skipped) == 2

    def test_persistent_index_file(self, tmp_path, run_pair):
        a, _ = run_pair
        save_run(tmp_path / "a.json", a)
        db = tmp_path / "state" / "index.sqlite"
        with ArtifactIndex(db) as index:
            index.ingest(tmp_path / "a.json")
        with ArtifactIndex(db) as index:
            assert len(index.runs()) == 1


class TestCampaignIngestion:
    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("campaign")
        spec = write_spec(tmp_path)
        directory = tmp_path / "camp"
        run_campaign(spec, directory=directory)
        return directory

    def test_campaign_and_cells_indexed(self, campaign_dir):
        with ArtifactIndex(":memory:") as index:
            report = index.ingest(campaign_dir)
            (campaign,) = index.campaigns()
            runs = index.runs()
        assert campaign["name"] == "small"
        assert campaign["total_cells"] == 2
        assert campaign["completed"] == 2
        assert campaign["quarantined"] == 0
        assert not campaign["truncated_journal"]
        assert report.cells_added == 2
        # Completed cells are digest-verified from the run cache.
        assert report.runs_added == 2
        assert {r["scheme"] for r in runs} == {"LRU", "STEM"}

    def test_campaign_reingest_is_idempotent(self, campaign_dir):
        with ArtifactIndex(":memory:") as index:
            index.ingest(campaign_dir)
            assert index.ingest(campaign_dir).changed == 0

    def test_torn_journal_tail_is_tolerated(self, campaign_dir, tmp_path):
        import shutil

        torn = tmp_path / "torn"
        shutil.copytree(campaign_dir, torn)
        with (torn / "campaign.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell_start", "cel')
        with ArtifactIndex(":memory:") as index:
            report = index.ingest(torn)
            assert report.skipped == []
            (campaign,) = index.campaigns()
            assert len(index.runs()) == 2
        # The summary reflects the finished campaign; the torn tail is
        # journal-level damage, surfaced by the journal flag alone.
        assert campaign["completed"] == 2

    def test_run_campaign_index_db_hook(self, tmp_path):
        spec = write_spec(tmp_path)
        db = tmp_path / "obs.sqlite"
        run_campaign(spec, directory=tmp_path / "camp", index_db=db)
        with ArtifactIndex(db) as index:
            assert len(index.campaigns()) == 1
            assert len(index.runs()) == 2


class TestHistoryIngestion:
    def _ledger(self, tmp_path):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, history_entry(
            {"lru": 100.0, "stem": 100.0}, "2026-01-01T00:00:00+00:00"
        ))
        append_history(path, history_entry(
            {"lru": 101.0, "stem": 50.0}, "2026-01-02T00:00:00+00:00"
        ))
        return path

    def test_samples_and_regressions(self, tmp_path):
        path = self._ledger(tmp_path)
        with ArtifactIndex(":memory:") as index:
            report = index.ingest(path)
            assert report.samples_added == 4
            assert index.ingest(path).changed == 0
            verdicts = index.regressions()
        assert [v["scheme"] for v in verdicts] == ["lru", "stem"]
        assert [v["regressed"] for v in verdicts] == [False, True]

    def test_bench_history_rebuilds_entry_shape(self, tmp_path):
        path = self._ledger(tmp_path)
        with ArtifactIndex(":memory:") as index:
            index.ingest(path)
            entries = index.bench_history()
        assert [e["recorded_at"] for e in entries] == [
            "2026-01-01T00:00:00+00:00", "2026-01-02T00:00:00+00:00",
        ]
        assert entries[1]["schemes"]["stem"]["accesses_per_sec"] == 50.0

    def test_non_ledger_jsonl_is_skipped(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            '{"kind": "grid_start", "span_id": "x"}\n', encoding="utf-8"
        )
        with ArtifactIndex(":memory:") as index:
            report = index.ingest(path)
            assert report.changed == 0
            assert len(report.skipped) == 1


class TestQueries:
    @pytest.fixture()
    def populated(self, tmp_path, run_pair):
        a, b = run_pair
        save_run(tmp_path / "a.json", a)
        save_run(tmp_path / "b.json", b)
        index = ArtifactIndex(":memory:")
        index.ingest(tmp_path)
        yield index
        index.close()

    def test_filters(self, populated):
        assert len(populated.runs()) == 2
        assert len(populated.runs(scheme="stem")) == 1
        assert len(populated.runs(scheme="STEM")) == 1
        assert len(populated.runs(benchmark="mcf")) == 2
        assert len(populated.runs(benchmark="art")) == 0
        assert populated.runs(since="2020-01-01T00:00:00+00:00")
        assert not populated.runs(since="2999-01-01T00:00:00+00:00")

    def test_runs_sorted_by_scheme_then_benchmark(self, populated):
        schemes = [r["scheme"] for r in populated.runs()]
        assert schemes == sorted(schemes)

    def test_run_lookup_and_prefix(self, populated):
        (first, _) = populated.runs()
        digest = first["hash"]
        assert populated.run(digest)["hash"] == digest
        assert populated.run(digest[:10])["hash"] == digest
        assert populated.run("0" * 64) is None

    def test_trajectory_in_ingestion_order(self, populated):
        rows = populated.trajectory("STEM", "mcf")
        assert len(rows) == 1
        assert rows[0]["scheme"] == "STEM"

    def test_stats(self, populated):
        stats = populated.stats()
        assert stats["runs"] == 2
        assert stats["campaigns"] == 0


class TestIndexCli:
    def test_ingest_query_round_trip(self, tmp_path, run_pair, capsys):
        a, _ = run_pair
        save_run(tmp_path / "a.json", a)
        db = tmp_path / "index.sqlite"
        assert main([
            "index", "ingest", str(tmp_path / "a.json"), "--db", str(db)
        ]) == 0
        assert "runs: 1 added" in capsys.readouterr().out
        assert main(["index", "query", "--db", str(db)]) == 0
        first = capsys.readouterr().out
        document = json.loads(first)
        assert document[0]["scheme"] == "LRU"
        # Deterministic: the same query prints the same bytes.
        assert main(["index", "query", "--db", str(db)]) == 0
        assert capsys.readouterr().out == first

    def test_regressions_cli(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(ledger, history_entry(
            {"stem": 100.0}, "2026-01-01T00:00:00+00:00"
        ))
        append_history(ledger, history_entry(
            {"stem": 10.0}, "2026-01-02T00:00:00+00:00"
        ))
        db = tmp_path / "index.sqlite"
        assert main([
            "index", "ingest", str(ledger), "--db", str(db)
        ]) == 0
        capsys.readouterr()
        assert main(["index", "regressions", "--db", str(db)]) == 0
        (verdict,) = json.loads(capsys.readouterr().out)
        assert verdict == {
            "scheme": "stem", "latest": 10.0, "reference": 100.0,
            "ratio": 0.1, "regressed": True,
        }

"""Tests for the bench-history ledger and trajectory detector."""

import json

import pytest

from repro._version import __version__
from repro.cli import main
from repro.common.errors import ConfigError
from repro.obs.benchhistory import (
    append_history,
    detect_regressions,
    history_document,
    load_history,
    machine_params,
    make_entry,
    render_history,
    scheme_trajectories,
)


def entry(rates, recorded_at="2026-08-08T00:00:00+00:00"):
    return make_entry(
        {
            name: {"accesses_per_sec": rate, "manifest_hash": f"h-{name}"}
            for name, rate in rates.items()
        },
        recorded_at=recorded_at,
    )


class TestLedger:
    def test_entry_shape(self):
        record = entry({"lru": 100.0, "stem": 50.0})
        assert record["package_version"] == __version__
        assert record["machine"] == machine_params()
        assert record["schemes"]["lru"] == {
            "accesses_per_sec": 100.0, "manifest_hash": "h-lru",
        }

    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "ledger" / "BENCH_HISTORY.jsonl"
        first = entry({"lru": 100.0})
        second = entry({"lru": 110.0}, recorded_at="2026-08-08T01:00:00+00:00")
        append_history(path, first)
        append_history(path, second)
        assert load_history(path) == [first, second]

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, entry({"lru": 100.0}))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"recorded_at": "2026-')
        history = load_history(path)
        assert len(history) == 1

    @pytest.mark.parametrize("before, fragment", [
        (1, '{"recorded_at": "2026-'),
        # Longer than one backward read: the newline search spans chunks.
        (1, '{"note": "' + "x" * 10_000),
        # No newline anywhere: the whole file is one torn record.
        (0, '{"recorded_at": "2026-'),
    ], ids=["short", "multi-chunk", "only-torn"])
    def test_append_after_torn_line_keeps_every_entry(
        self, tmp_path, before, fragment
    ):
        path = tmp_path / "h.jsonl"
        entries = [entry({"lru": rate}) for rate in (100.0, 110.0, 120.0)]
        for acknowledged in entries[:before]:
            append_history(path, acknowledged)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(fragment)  # recorder killed mid-append
        for acknowledged in entries[before:]:
            append_history(path, acknowledged)
        assert load_history(path) == entries

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text(
            'not json at all\n'
            + json.dumps(entry({"lru": 100.0})) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="malformed ledger line"):
            load_history(path)


class TestTrajectories:
    def test_scheme_trajectories_skip_gaps(self):
        history = [
            entry({"lru": 100.0, "stem": 40.0}),
            entry({"lru": 110.0}),
            entry({"lru": 120.0, "stem": 44.0}),
        ]
        assert scheme_trajectories(history) == {
            "lru": [100.0, 110.0, 120.0],
            "stem": [40.0, 44.0],
        }

    def test_detects_regression_against_recent_best(self):
        history = [entry({"lru": rate}) for rate in (100.0, 105.0, 70.0)]
        verdicts = detect_regressions(history, ratio=0.8)
        assert len(verdicts) == 1
        verdict = verdicts[0]
        assert verdict.regressed
        assert verdict.reference == 105.0
        assert verdict.latest == 70.0
        assert "REGRESSED" in str(verdict)

    def test_ok_within_ratio(self):
        history = [entry({"lru": rate}) for rate in (100.0, 95.0)]
        (verdict,) = detect_regressions(history, ratio=0.8)
        assert not verdict.regressed
        assert "ok" in str(verdict)

    def test_stepwise_drift_is_caught_from_the_peak(self):
        # Each step stays above 0.8x of its predecessor, but the latest
        # has drifted below 0.8x of the windowed best — the failure mode
        # single-snapshot guards cannot see.
        rates = (100.0, 90.0, 82.0, 75.0)
        history = [entry({"lru": rate}) for rate in rates]
        (verdict,) = detect_regressions(history, ratio=0.8)
        assert verdict.reference == 100.0
        assert verdict.regressed

    def test_reference_window_limits_lookback(self):
        # The century-old peak falls outside a window of 2.
        rates = (1000.0, 80.0, 82.0, 75.0)
        history = [entry({"lru": rate}) for rate in rates]
        (verdict,) = detect_regressions(
            history, ratio=0.8, reference_window=2
        )
        assert verdict.reference == 82.0
        assert not verdict.regressed

    def test_single_point_has_no_trajectory(self):
        assert detect_regressions([entry({"lru": 100.0})]) == []

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            detect_regressions([], ratio=0.0)
        with pytest.raises(ConfigError):
            detect_regressions([], reference_window=0)


class TestRendering:
    def test_empty_history(self):
        assert "no entries" in render_history([])

    def test_trend_view(self):
        history = [
            entry({"lru": 100.0, "stem": 50.0}),
            entry({"lru": 120.0, "stem": 30.0}),
        ]
        rendered = render_history(history, ratio=0.8)
        assert "2 recording(s)" in rendered
        assert "lru" in rendered and "stem" in rendered
        assert "REGRESSED" in rendered  # stem fell to 0.6x
        assert "1 scheme(s) below 0.80x" in rendered

    def test_cli_history_view(self, tmp_path, capsys):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, entry({"lru": 100.0}))
        append_history(path, entry({"lru": 110.0}))
        code = main(["bench", "--history", "--history-file", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench history: 2 recording(s)" in out
        assert "lru" in out

    def test_cli_history_corrupt_ledger_exits_2(self, tmp_path, capsys):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        path.write_text("garbage\n" + json.dumps(entry({"lru": 1.0})) + "\n")
        code = main(["bench", "--history", "--history-file", str(path)])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err


class TestHistoryDocument:
    def test_document_shape(self):
        history = [
            entry({"lru": 100.0, "stem": 100.0}),
            entry({"lru": 101.0, "stem": 50.0},
                  recorded_at="2026-08-08T01:00:00+00:00"),
        ]
        document = history_document(history)
        assert document["entries"] == 2
        assert document["first_recorded_at"] == "2026-08-08T00:00:00+00:00"
        assert document["last_recorded_at"] == "2026-08-08T01:00:00+00:00"
        assert document["regressed"] == ["stem"]
        verdicts = {v["scheme"]: v for v in document["verdicts"]}
        assert not verdicts["lru"]["regressed"]
        assert verdicts["stem"] == {
            "scheme": "stem", "latest": 50.0, "reference": 100.0,
            "ratio": 0.5, "regressed": True,
        }

    def test_empty_history_document(self):
        document = history_document([])
        assert document["entries"] == 0
        assert document["first_recorded_at"] is None
        assert document["regressed"] == []

    def test_cli_json_ok_exits_0(self, tmp_path, capsys):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, entry({"lru": 100.0}))
        append_history(path, entry({"lru": 110.0}))
        code = main([
            "bench", "--history", "--json", "--history-file", str(path)
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["regressed"] == []

    def test_cli_json_regression_exits_3(self, tmp_path, capsys):
        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, entry({"lru": 100.0}))
        append_history(path, entry({"lru": 10.0}))
        code = main([
            "bench", "--history", "--json", "--history-file", str(path)
        ])
        assert code == 3
        document = json.loads(capsys.readouterr().out)
        assert document["regressed"] == ["lru"]


class TestCommittedLedger:
    def test_repo_ledger_parses(self):
        # The committed ledger at the repo root must always load.
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_HISTORY.jsonl"
        history = load_history(path)
        assert history, "committed BENCH_HISTORY.jsonl is empty"
        for record in history:
            assert "schemes" in record and "machine" in record

"""Candidate-list comparison harness (the [9] narrative)."""

import pytest

from repro.core import AttackConfig
from repro.eval import ZhangReport, ZhangRow, run_candidate_list_comparison
from repro.pipeline import clear_memo


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memo()
    yield
    clear_memo()


class TestReportRendering:
    def test_render_contains_rows(self):
        report = ZhangReport(
            rows=[ZhangRow("c432", 50.0, 40.0, 80.0, 12.5, 30.0)],
            split_layer=3,
        )
        text = report.render()
        assert "c432" in text
        assert "1e30" in text
        assert "candidate lists" in text


class TestTinyRun:
    def test_comparison_on_tiny_corpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")  # disk cache off
        report = run_candidate_list_comparison(
            designs=["tiny_seq"],
            split_layer=3,
            config=AttackConfig.tiny().with_(epochs=2),
            train_names=("tiny_a", "tiny_b"),
        )
        assert len(report.rows) == 1
        row = report.rows[0]
        assert 0.0 <= row.dl_ccr <= 100.0
        assert 0.0 <= row.rf_single_ccr <= 100.0
        assert row.rf_list_recall >= row.rf_single_ccr - 1e-9
        assert row.rf_mean_list_size >= 1.0
        assert report.rf_train_seconds > 0.0

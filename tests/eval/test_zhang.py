"""Candidate-list comparison (the [9] narrative) on the engine.

The ``candidate-lists`` grid runs through ``Client.run(grid).report()``;
``oracle_candidate_lists`` recomputes the same report straight from the
attack primitives, and the two must agree bitwise.
"""

import math

import pytest

from repro.api import Client
from repro.attacks.random_forest import RandomForestAttack
from repro.core import AttackConfig
from repro.eval import ZhangReport, ZhangRow
from repro.pipeline import clear_memo, get_split, trained_attack
from repro.split.metrics import candidate_list_recall, ccr

TINY = AttackConfig.tiny().with_(epochs=2)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memo()
    yield
    clear_memo()


def run_report(**params):
    with Client(store=False) as client:
        return client.run("candidate-lists", params).report()


def oracle_candidate_lists(
    designs, split_layer, config, train_names, list_threshold
) -> ZhangReport:
    """One forest trained on the corpus, scored design by design next to
    the DL attack's single pick."""
    report = ZhangReport(split_layer=split_layer)
    dl = trained_attack(split_layer, config, train_names)
    rf = RandomForestAttack()
    rf.train([get_split(n, split_layer) for n in train_names])
    for name in designs:
        split = get_split(name, split_layer)
        lists = rf.candidate_lists(split, list_threshold)
        report.rows.append(
            ZhangRow(
                design=name,
                dl_ccr=ccr(split, dl.select(split)),
                rf_single_ccr=ccr(split, rf.select(split)),
                rf_list_recall=candidate_list_recall(split, lists.lists),
                rf_mean_list_size=lists.mean_size(),
                log10_combinations=sum(
                    math.log10(max(len(v), 1)) for v in lists.lists.values()
                ),
                list_threshold=list_threshold,
            )
        )
    return report


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
        assert "threshold" not in text

    def test_threshold_column_when_thresholds_differ(self):
        report = ZhangReport(
            rows=[
                ZhangRow("c432", 50.0, 40.0, 80.0, 12.5, 30.0, 0.2),
                ZhangRow("c432", 50.0, 40.0, 60.0, 3.5, 9.0, 0.5),
            ],
        )
        lines = report.render().splitlines()
        assert "RF threshold" in lines[1]
        assert lines[3].split("|")[1].strip() == "0.2"
        assert lines[4].split("|")[1].strip() == "0.5"


class TestTinyRun:
    def test_comparison_on_tiny_corpus(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")  # disk cache off
        report = run_report(
            designs=["tiny_seq"],
            split_layer=3,
            thresholds=(0.2, 0.5),
            config=TINY,
            train_names=("tiny_a", "tiny_b"),
        )
        assert [(r.design, r.list_threshold) for r in report.rows] == [
            ("tiny_seq", 0.2), ("tiny_seq", 0.5),
        ]
        for row in report.rows:
            assert 0.0 <= row.dl_ccr <= 100.0
            assert 0.0 <= row.rf_single_ccr <= 100.0
            assert row.rf_list_recall >= row.rf_single_ccr - 1e-9
            assert row.rf_mean_list_size >= 1.0
        assert report.rows[0].dl_ccr == report.rows[1].dl_ccr
        assert report.rf_train_seconds > 0.0


class TestEngineMatchesOracle:
    def test_c432_m3_bitwise(self):
        train_names = ("train_alu2", "train_t481")
        engine = run_report(
            designs=["c432"],
            split_layer=3,
            thresholds=(0.2, 0.5),
            config=TINY,
            train_names=train_names,
        )
        # The engine fits one forest for both thresholds; the oracle
        # fits a fresh one per threshold.
        oracles = [
            oracle_candidate_lists(
                ["c432"], 3, TINY, train_names, list_threshold=threshold
            )
            for threshold in (0.2, 0.5)
        ]
        assert engine.split_layer == oracles[0].split_layer == 3
        assert engine.rows == oracles[0].rows + oracles[1].rows

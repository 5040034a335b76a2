"""Table 3 / Figure 5 grids and reports on a miniature corpus.

These run the *real* grids end-to-end through ``Client.run(grid)
.report()`` with tiny configs and tiny designs; the full-scale
regeneration lives in benchmarks/.
"""

import pytest

from repro.api import Client
from repro.core import AttackConfig
from repro.eval import (
    PAPER_CCR_GAINS,
    Table3Report,
    Table3Row,
    variant_config,
)
from repro.netlist.benchmarks import PaperRow
from repro.pipeline import clear_memo


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memo()
    yield
    clear_memo()


TINY = AttackConfig.tiny().with_(epochs=2)
TRAIN = ("tiny_a", "tiny_b")


def run_report(grid, **params):
    with Client(store=False) as client:
        return client.run(grid, params).report()


class TestTable3Harness:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        # class-scoped: one training run for all assertions, in a cache
        # of its own (class fixtures run before the per-test one)
        patcher = pytest.MonkeyPatch()
        patcher.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("table3_cache"))
        )
        clear_memo()
        try:
            yield run_report(
                "table3",
                designs=["tiny_seq"],
                split_layers=(3,),
                config=TINY,
                train_names=TRAIN,
                flow_timeout_s=30.0,
            )
        finally:
            patcher.undo()
            clear_memo()

    def test_row_per_design_and_layer(self, report):
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.design == "tiny_seq"
        assert row.split_layer == 3
        assert row.n_sink_fragments > 0

    def test_ccrs_in_range(self, report):
        row = report.rows[0]
        assert 0.0 <= row.ccr_dl <= 100.0
        assert row.ccr_flow is None or 0.0 <= row.ccr_flow <= 100.0

    def test_averages_and_render(self, report):
        avg = report.averages(3)
        assert "ccr_ratio" in avg
        text = report.render()
        assert "tiny_seq" in text
        assert "Table 3" in text
        # the budget comes from the grid's flow scenarios
        assert "(flow timeout 30s)" in text
        md = report.to_markdown()
        assert "| tiny_seq |" in md


class TestTable3Report:
    def make_report(self):
        report = Table3Report()
        paper = PaperRow(100, 50, 50.0, 60.0, 10.0, 1.0)
        report.rows = [
            Table3Row("a", 3, 10, 5, 40.0, 50.0, 2.0, 0.5, paper),
            Table3Row("b", 3, 10, 5, 20.0, 30.0, 4.0, 0.5, paper),
            Table3Row("c", 3, 99, 9, None, 25.0, None, 1.5, paper),
        ]
        return report

    def test_averages_exclude_timeouts(self):
        report = self.make_report()
        avg = report.averages(3)
        assert avg["ccr_flow"] == pytest.approx(30.0)
        assert avg["ccr_dl"] == pytest.approx(40.0)
        assert avg["ccr_ratio"] == pytest.approx(40.0 / 30.0)

    def test_na_rendered(self):
        text = self.make_report().render()
        assert "N/A" in text


class TestFigure5Harness:
    def test_variant_configs(self):
        base = AttackConfig.tiny()
        assert variant_config(base, "two-class").loss == "two_class"
        assert not variant_config(base, "two-class").use_images
        assert variant_config(base, "vec").loss == "softmax"
        assert not variant_config(base, "vec").use_images
        assert variant_config(base, "vec&img").use_images
        with pytest.raises(ValueError):
            variant_config(base, "bogus")

    def test_paper_gains_recorded(self):
        assert PAPER_CCR_GAINS["vec"] == 1.07
        assert PAPER_CCR_GAINS["vec&img"] == 1.09

    def test_tiny_run(self):
        report = run_report(
            "figure5",
            designs=["tiny_seq"],
            split_layer=3,
            config=TINY,
            train_names=TRAIN,
        )
        assert [r.variant for r in report.results] == [
            "two-class", "vec", "vec&img",
        ]
        for result in report.results:
            assert 0.0 <= result.avg_ccr <= 100.0
            assert result.avg_inference_s > 0
        gains = report.gains()
        assert gains["two-class"] == pytest.approx(1.0)
        text = report.render()
        assert "Figure 5" in text
        assert "(a) average CCR" in text

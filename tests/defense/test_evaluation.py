"""Defense sweep grid and report (parallel-ready build-and-attack cells)."""

import pytest

from repro.api import Client
from repro.pipeline import clear_memo


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    patcher = pytest.MonkeyPatch()
    patcher.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache"))
    )
    clear_memo()
    with Client(store=False) as client:
        report = client.run(
            "defense-sweep",
            {
                "design": "tiny_a",
                "split_layer": 3,
                "perturbations": (6.0,),
                "lift_fractions": (0.4,),
                "with_flow": False,
            },
        ).report()
    yield report
    patcher.undo()
    clear_memo()


def test_cell_per_sweep_point(sweep):
    assert [c.kind for c in sweep.cells] == ["baseline", "perturb", "lift"]


def test_baseline_accessor(sweep):
    assert sweep.baseline.kind == "baseline"
    assert sweep.baseline.strength == 0.0


def test_cells_carry_attack_outcomes(sweep):
    for cell in sweep.cells:
        assert 0.0 <= cell.ccr_proximity <= 100.0
        assert cell.ccr_flow is None  # with_flow=False
        assert cell.n_sink_fragments > 0
        assert cell.wirelength > 0


def test_lifting_hides_more_pins(sweep):
    lifted = next(c for c in sweep.cells if c.kind == "lift")
    assert lifted.hidden_pins >= sweep.baseline.hidden_pins


def test_render(sweep):
    text = sweep.render()
    assert "undefended" in text
    assert "lift 40% of nets" in text

"""Sweep engine: planning, artifact reuse, resume, paper-grid parity.

All tests run on the tiny corpus with per-test isolated caches; the
parity tests assert the paper grids, run as ``Client.run(grid)
.report()``, reproduce exactly the CCRs computed by a short in-test
oracle over the attack primitives (acceptance criterion of the
experiments subsystem).
"""

import pytest

from repro.api import Client
from repro.attacks import NetworkFlowAttack, ProximityAttack
from repro.core import AttackConfig, build_candidates, candidate_recall
from repro.core.attack import DLAttack
from repro.core.model import SplitNet
from repro.defense import (
    DefenseCell,
    DefenseSweepReport,
    lifted_layout,
    perturbed_layout,
)
from repro.eval import VARIANTS, run_with_timeout, variant_config
from repro.experiments import (
    DefenseSpec,
    ResultsStore,
    ScenarioSpec,
    build_grid,
    evaluate_scenario,
    plan_sweep,
    run_sweep,
)
from repro.experiments.engine import PlanOwner, SweepDriver
from repro.experiments.store import ScenarioRecord
from repro.layout.design import build_layout
from repro.pipeline import (
    build_netlist,
    clear_memo,
    get_split,
    trained_attack,
)
from repro.pipeline.parallel import Executor
from repro.split import ccr
from repro.split.split import split_design
from test_golden_sweep import golden_specs

TINY = AttackConfig.tiny().with_(epochs=2)
TRAIN = ("tiny_a", "tiny_b")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_memo()
    yield
    clear_memo()


def dl_spec(design, **kw):
    kw.setdefault("config", TINY)
    kw.setdefault("train_names", TRAIN)
    return ScenarioSpec(design=design, split_layer=3, attack="dl", **kw)


def oracle_levels(plan):
    """Topological levels by depth (1 + the deepest in-plan dependency),
    each in plan insertion order: the batches a one-plan drain must
    dispatch, in order."""
    depth = {}

    def node_depth(key):
        if key not in depth:
            deps = [d for d in plan.nodes[key].deps if d in plan.nodes]
            depth[key] = 1 + max((node_depth(d) for d in deps), default=-1)
        return depth[key]

    levels = {}
    for key, node in plan.nodes.items():
        levels.setdefault(node_depth(key), []).append(node)
    return [levels[d] for d in sorted(levels)]


def fake_run(kind, payload):
    """Stands in for ``run_node``: settles a node without running it."""
    if kind != "eval":
        return kind, None, 0.0
    spec = ScenarioSpec.from_dict(payload[0])
    record = ScenarioRecord(
        scenario_hash=spec.scenario_hash, scenario=payload[0],
        status="ok", ccr=0.0, runtime_s=0.0,
        n_sink_fragments=0, n_source_fragments=0,
    )
    return kind, record.to_dict(), 0.0


def driver_batches(plan):
    """The ready batches a fresh one-owner driver dispatches for plan."""
    driver = SweepDriver(Executor(1))
    driver._admit(PlanOwner("oracle", plan))
    batches = []
    while batch := driver._ready_batch():
        batches.append(batch)
        driver._run_batch(batch, run=fake_run)
    return batches


def keys(batches):
    return [[node.key for node in batch] for batch in batches]


class TestPlanning:
    def test_shared_training_config_plans_one_train_node(self):
        plan = plan_sweep([dl_spec("tiny_a"), dl_spec("tiny_b")])
        counts = plan.counts()
        assert counts["train"] == 1
        assert counts["eval"] == 2
        assert counts["layout"] == 2  # tiny_a + tiny_b (corpus == evals)

    def test_distinct_configs_plan_distinct_train_nodes(self):
        plan = plan_sweep([
            dl_spec("tiny_a"),
            dl_spec("tiny_a", config=TINY.with_(epochs=1)),
        ])
        assert plan.counts()["train"] == 2

    def test_baseline_attacks_need_no_train_node(self):
        plan = plan_sweep([
            ScenarioSpec(design="tiny_a", split_layer=3, attack="proximity"),
        ])
        assert "train" not in plan.counts()

    def test_levels_respect_dependencies(self):
        plan = plan_sweep([dl_spec("tiny_a")])
        batches = driver_batches(plan)
        kinds = [sorted({n.kind for n in batch}) for batch in batches]
        assert kinds == [["layout"], ["features"], ["train"], ["eval"]]
        assert keys(batches) == keys(oracle_levels(plan))

    @pytest.mark.parametrize("grid", ["golden-sweep", "table3", "figure5"])
    def test_ready_batches_are_the_oracle_levels(self, grid):
        # Planned against the empty per-test cache, so every layout,
        # feature warm-up and train node is in the plan.
        specs = golden_specs() if grid == "golden-sweep" else build_grid(grid)
        plan = plan_sweep(specs)
        assert plan.nodes
        assert keys(driver_batches(plan)) == keys(oracle_levels(plan))

    def test_feature_warmup_is_shared_across_evals(self):
        # Two DL scenarios on the same layout whose configs differ only
        # in training hyper-parameters: one warm-up node serves both.
        plan = plan_sweep([
            dl_spec("tiny_a"),
            dl_spec("tiny_a", config=TINY.with_(epochs=1)),
        ])
        features = [
            n for n in plan.nodes.values() if n.kind == "features"
        ]
        assert len(features) == len(TRAIN)  # corpus warm-ups only,
        # because tiny_a is in the corpus and dedups with the eval's

    def test_cache_free_inference_skips_target_warmup(self):
        plan = plan_sweep([
            dl_spec("tiny_seq", cache_free_inference=True),
        ])
        targets = [
            n for n in plan.nodes.values()
            if n.kind == "features" and n.payload[0] == "tiny_seq"
        ]
        assert targets == []  # figure5 timing mode re-extracts anyway

    def test_warm_feature_cache_prunes_warmup_node(self, tmp_path):
        specs = [dl_spec("tiny_seq")]
        run_sweep(specs)  # warms layouts + features + weights
        clear_memo()
        plan = plan_sweep(specs)
        assert "features" not in plan.counts()
        assert plan.pruned.get("features", 0) >= 1
        assert plan.pruned.get("layout", 0) >= 1

    def test_defended_layouts_are_shared_nodes(self):
        defense = DefenseSpec("perturb", 4.0)
        plan = plan_sweep([
            ScenarioSpec(design="tiny_a", attack="proximity", defense=defense),
            ScenarioSpec(design="tiny_a", attack="flow", defense=defense),
        ])
        assert plan.counts()["layout"] == 1

    def test_store_hits_prune_everything(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        specs = [ScenarioSpec(design="tiny_a", attack="proximity")]
        run_sweep(specs, store=store)
        plan = plan_sweep(specs, store=store)
        assert not plan.nodes
        assert len(plan.reused) == 1


class TestExecution:
    def test_records_in_spec_order_and_resume(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        specs = [
            ScenarioSpec(design="tiny_b", split_layer=3, attack="proximity"),
            ScenarioSpec(design="tiny_a", split_layer=3, attack="proximity"),
        ]
        first = run_sweep(specs, store=store)
        assert first.executed == 2 and first.reused == 0
        assert [r.scenario["design"] for r in first.records] == [
            "tiny_b", "tiny_a",
        ]
        again = run_sweep(specs, store=store)
        assert again.executed == 0 and again.reused == 2
        assert [r.ccr for r in again.records] == [r.ccr for r in first.records]

    def test_fresh_run_ignores_store(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        specs = [ScenarioSpec(design="tiny_a", attack="proximity")]
        run_sweep(specs, store=store)
        fresh = run_sweep(specs, store=store, resume=False)
        assert fresh.executed == 1
        assert len(store.history()) == 2

    def test_cross_scenario_artifact_reuse_no_retrain(self, tmp_path,
                                                      monkeypatch):
        store = ResultsStore(tmp_path / "exp.jsonl")
        first = run_sweep([dl_spec("tiny_a")], store=store)
        assert first.executed == 1

        def boom(*args, **kwargs):
            raise AssertionError(
                "second scenario with the same training config retrained"
            )

        monkeypatch.setattr(DLAttack, "train", boom)
        clear_memo()  # drop layout memos; weights must come from disk
        second = run_sweep([dl_spec("tiny_b")], store=store)
        assert second.executed == 1
        assert second.records[0].status == "ok"

    def test_no_disk_cache_shares_training_in_process(self, monkeypatch):
        # With the disk cache disabled the plan has no train nodes and
        # each dl eval calls trained_attack in-process; the attack memo
        # must keep that at one training per (layer, config), exactly
        # like the legacy direct harness did.
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        clear_memo()
        calls = []
        real_train = DLAttack.train

        def counting_train(self, *args, **kwargs):
            calls.append(1)
            return real_train(self, *args, **kwargs)

        monkeypatch.setattr(DLAttack, "train", counting_train)
        result = run_sweep([dl_spec("tiny_a"), dl_spec("tiny_b")])
        assert [r.status for r in result.records] == ["ok", "ok"]
        assert len(calls) == 1
        clear_memo()

    def test_cache_free_job_leaves_shared_attack_caching(
        self, tmp_path, monkeypatch
    ):
        # Both jobs get the same memoised attack from trained_attack; the
        # cache-free one must not switch the embedding cache off for the
        # normal one that follows it in the same process.
        trained_attack(3, TINY, train_names=TRAIN)
        features = tmp_path / "cache" / "features"
        free = evaluate_scenario(
            dl_spec("tiny_seq", cache_free_inference=True)
        )
        assert not list(features.glob("emb_*.npz"))
        normal = evaluate_scenario(dl_spec("tiny_seq"))
        assert len(list(features.glob("emb_*.npz"))) == 1  # written
        assert normal.ccr == free.ccr

        def no_tower(self, images):
            raise AssertionError("embeddings were not read from the cache")

        monkeypatch.setattr(SplitNet, "embed_images", no_tower)
        again = evaluate_scenario(dl_spec("tiny_seq"))  # read
        assert again.ccr == normal.ccr

    def test_failed_late_node_keeps_earlier_levels(self, tmp_path,
                                                   monkeypatch):
        store = ResultsStore(tmp_path / "exp.jsonl")
        prox = ScenarioSpec(design="tiny_a", split_layer=3, attack="proximity")

        def boom(self, split, **kwargs):
            raise RuntimeError("dl eval failed")

        monkeypatch.setattr(DLAttack, "attack", boom)
        with pytest.raises(RuntimeError):
            run_sweep([prox, dl_spec("tiny_a")], store=store)
        # The proximity eval's level finished and persisted before the
        # DL eval failed — the re-run resumes it from the store.
        assert store.get(prox) is not None

    def test_flow_timeout_recorded(self, tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        spec = ScenarioSpec(
            design="tiny_seq", split_layer=3, attack="flow",
            flow_timeout_s=1e-4,
        )
        result = run_sweep([spec], store=store)
        record = result.records[0]
        assert record.status == "timeout"
        assert record.ccr is None
        assert store.get(spec).status == "timeout"


class TestRecordExtras:
    """Records carry the attack's self-reported ceiling."""

    def test_dl_candidate_recall_from_group_targets(self, monkeypatch):
        spec = dl_spec("tiny_seq")
        cold = evaluate_scenario(spec)
        split = get_split("tiny_seq", 3)
        expected = candidate_recall(
            split, build_candidates(split, TINY.n_candidates)
        )
        assert cold.extra["candidate_recall"] == expected
        # A warm feature-cache hit reruns no candidate selection.
        import repro.core.dataset as dataset_mod

        def no_selection(*args, **kwargs):
            raise AssertionError("candidate selection ran on a warm hit")

        monkeypatch.setattr(dataset_mod, "build_candidates", no_selection)
        warm = evaluate_scenario(spec)
        assert warm.extra["candidate_recall"] == expected
        assert warm.ccr == cold.ccr

    def test_flow_binding_statistics(self):
        record = evaluate_scenario(
            ScenarioSpec(design="tiny_seq", split_layer=3, attack="flow")
        )
        stats = record.extra["flow"]
        assert set(stats) == {
            "knn_truth_recall", "saturated_sources", "escape_sinks",
        }
        assert 0.0 <= stats["knn_truth_recall"] <= 1.0
        assert 0 <= stats["saturated_sources"] <= record.n_source_fragments
        assert 0 <= stats["escape_sinks"] <= record.n_sink_fragments

    def test_flow_timeout_and_proximity_report_nothing(self):
        timed_out = evaluate_scenario(ScenarioSpec(
            design="tiny_seq", split_layer=3, attack="flow",
            flow_timeout_s=1e-4,
        ))
        assert timed_out.status == "timeout"
        assert "flow" not in timed_out.extra
        proximity = evaluate_scenario(
            ScenarioSpec(design="tiny_seq", split_layer=3, attack="proximity")
        )
        assert proximity.extra == {}


def oracle_table3_row(design, layer, flow_timeout_s):
    """One Table 3 cell computed straight from the attack primitives:
    the flow attack under its budget and the DL attack on one split."""
    split = get_split(design, layer)
    timed = run_with_timeout(
        lambda: NetworkFlowAttack().attack(split), flow_timeout_s
    )
    dl = trained_attack(layer, TINY, train_names=TRAIN)
    return {
        "n_sink_fragments": len(split.sink_fragments),
        "n_source_fragments": len(split.source_fragments),
        "ccr_flow": (
            None if timed.timed_out else ccr(split, timed.value.assignment)
        ),
        "ccr_dl": ccr(split, dl.attack(split).assignment),
    }


def oracle_figure5_ccrs(design, layer):
    """Per-variant CCR on one design, inference cache-free."""
    split = get_split(design, layer)
    out = {}
    for variant in VARIANTS:
        attack = trained_attack(
            layer, variant_config(TINY, variant), train_names=TRAIN
        )
        result = attack.attack(split, use_disk_cache=False)
        out[variant] = {design: ccr(split, result.assignment)}
    return out


def oracle_defense_report(design, layer, perturbations, lift_fractions):
    """The defense sweep built layout by layout from the primitives."""
    netlist = build_netlist(design)
    points = [("baseline", 0.0, "undefended", build_layout(netlist))]
    points += [
        ("perturb", s, f"perturb +-{s:.0f} tracks",
         perturbed_layout(netlist, strength=s))
        for s in perturbations
    ]
    points += [
        ("lift", f, f"lift {int(100 * f)}% of nets",
         lifted_layout(netlist, lift_fraction=f))
        for f in lift_fractions
    ]
    report = DefenseSweepReport(design=design, split_layer=layer)
    for kind, strength, label, layout in points:
        split = split_design(layout, layer)
        report.cells.append(DefenseCell(
            label=label,
            kind=kind,
            strength=strength,
            n_sink_fragments=len(split.sink_fragments),
            hidden_pins=split.n_hidden_sink_pins,
            ccr_proximity=ccr(
                split, ProximityAttack().attack(split).assignment
            ),
            ccr_flow=ccr(
                split, NetworkFlowAttack().attack(split).assignment
            ),
            wirelength=layout.total_wirelength(),
        ))
    return report


def run_report(grid, store, **params):
    with Client(store=store) as client:
        return client.run(grid, params).report()


class TestHarnessParity:
    """The paper grids, run through ``Client.run(grid).report()``, must
    reproduce CCRs computed directly from the attack primitives."""

    def test_table3_parity(self, tmp_path):
        direct = oracle_table3_row("tiny_seq", 3, flow_timeout_s=30.0)
        store = ResultsStore(tmp_path / "exp.jsonl")
        params = dict(
            designs=["tiny_seq"], split_layers=(3,), config=TINY,
            train_names=TRAIN, flow_timeout_s=30.0,
        )
        engine = run_report("table3", store, **params)
        assert len(engine.rows) == 1
        e = engine.rows[0]
        assert (e.design, e.split_layer) == ("tiny_seq", 3)
        assert e.n_sink_fragments == direct["n_sink_fragments"]
        assert e.n_source_fragments == direct["n_source_fragments"]
        assert e.ccr_dl == direct["ccr_dl"]
        assert e.ccr_flow == direct["ccr_flow"]
        assert "tiny_seq" in engine.render()
        # and the engine run is resumable: nothing re-executes
        again = run_report("table3", store, **params)
        assert again.rows[0].ccr_dl == e.ccr_dl
        assert len(store.history()) == 2  # flow + dl, appended once

    def test_figure5_parity(self, tmp_path):
        direct = oracle_figure5_ccrs("tiny_seq", 3)
        store = ResultsStore(tmp_path / "exp.jsonl")
        engine = run_report(
            "figure5", store, designs=["tiny_seq"], split_layer=3,
            config=TINY, train_names=TRAIN,
        )
        assert [r.variant for r in engine.results] == list(VARIANTS)
        for e in engine.results:
            assert e.per_design_ccr == direct[e.variant]
            assert e.avg_ccr == direct[e.variant]["tiny_seq"]
            assert e.avg_inference_s > 0

    def test_defense_parity(self, tmp_path):
        kwargs = dict(
            split_layer=3, perturbations=(4.0,), lift_fractions=(0.5,),
            with_flow=True,
        )
        direct = oracle_defense_report("tiny_a", 3, (4.0,), (0.5,))
        store = ResultsStore(tmp_path / "exp.jsonl")
        engine = run_report("defense-sweep", store, design="tiny_a", **kwargs)
        assert [c.label for c in engine.cells] == [
            c.label for c in direct.cells
        ]
        for d, e in zip(direct.cells, engine.cells):
            assert e.kind == d.kind
            assert e.ccr_proximity == d.ccr_proximity
            assert e.ccr_flow == d.ccr_flow
            assert e.n_sink_fragments == d.n_sink_fragments
            assert e.hidden_pins == d.hidden_pins
            assert e.wirelength == d.wirelength
        assert engine.render() == direct.render()


class TestGrids:
    def test_table3_grid_covers_suite(self):
        specs = build_grid("table3")
        assert len(specs) == 16 * 2 * 2  # designs x layers x {flow, dl}
        assert len({s.scenario_hash for s in specs}) == len(specs)

    def test_json_param_config_dict_is_coerced(self):
        # the CLI --param syntax hands configs through as plain dicts
        specs = build_grid(
            "table3", designs=("c432",), split_layers=(3,),
            config={"epochs": 2},
        )
        dl = [s for s in specs if s.attack == "dl"][0]
        assert isinstance(dl.config, AttackConfig)
        assert dl.config.epochs == 2
        dl.to_dict()  # must serialise cleanly
        f5 = build_grid(
            "figure5", designs=("c432",), config={"epochs": 2},
        )
        assert all(isinstance(s.config, AttackConfig) for s in f5)

    def test_unknown_grid_and_params_error(self):
        with pytest.raises(KeyError):
            build_grid("nope")
        with pytest.raises(TypeError):
            build_grid("table3", bogus_param=1)

    def test_candidate_lists_grid_runs_rf(self, tmp_path):
        specs = build_grid(
            "candidate-lists",
            designs=("tiny_seq",), thresholds=(0.2, 0.5),
            config=TINY, train_names=TRAIN,
        )
        assert [s.attack for s in specs] == ["dl", "rf", "rf"]
        assert len({s.scenario_hash for s in specs}) == 3
        # The rf evaluations are cheap enough for the fast tier; the
        # DL sibling is covered by the other grids.
        rf_specs = [s for s in specs if s.attack == "rf"]
        store = ResultsStore(tmp_path / "exp.jsonl")
        result = run_sweep(rf_specs, store=store)
        # One forest serves both thresholds: the first record trained
        # it in-eval, the second reused it and reports no training.
        assert result.records[0].train_seconds > 0
        assert result.records[1].train_seconds is None
        for record in result.records:
            assert record.status == "ok"
            rf = record.extra["rf"]
            assert rf["mean_list_size"] >= 1.0
            assert 0.0 <= rf["list_recall"] <= 100.0
        # A looser threshold can only grow the candidate lists.
        loose, tight = result.records[0], result.records[1]
        assert (
            loose.extra["rf"]["mean_list_size"]
            >= tight.extra["rf"]["mean_list_size"]
        )

    def test_cross_defense_grid_shares_training(self):
        specs = build_grid(
            "cross-defense",
            designs=("tiny_a",), split_layers=(3,),
            config=TINY, train_names=TRAIN,
        )
        plan = plan_sweep(specs)
        # one trained model serves every defense variant at this layer
        assert plan.counts()["train"] == 1
        assert plan.counts()["eval"] == len(specs)

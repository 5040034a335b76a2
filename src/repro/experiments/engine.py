"""DAG-aware sweep engine.

A sweep is a list of :class:`~repro.experiments.spec.ScenarioSpec`.
Planning turns it into a small artifact DAG:

* **layout** nodes — place-and-route one (possibly defended) layout
  into the disk cache;
* **features** nodes — render one layout's feature tensors (vector
  features + unique-image table) into the feature cache, keyed by
  (layout, split layer, feature-relevant config fields); explicit
  warm-up, so several DL evaluations of the same layout never pay the
  render cost twice;
* **train** nodes — train one DL attack per distinct (split layer,
  config, training corpus) fingerprint; *shared across every scenario
  with the same training configuration*, so a cross-defense grid with
  40 DL scenarios and one config trains exactly once;
* **eval** nodes — run one scenario's attack and produce a
  :class:`~repro.experiments.store.ScenarioRecord`.

Artifact nodes exist to dedup expensive work across concurrent workers
and across scenarios; they are dropped from the plan when their cached
artifact already exists, and eval nodes are dropped when the results
store already holds their scenario hash (resume-from-store).  A fully
cached sweep therefore schedules nothing and returns near-instantly.

Execution runs the DAG level by level (every node whose dependencies
are satisfied) through a :class:`repro.pipeline.parallel.Executor`, so
``workers=`` / ``REPRO_WORKERS`` fan each level out over processes
coordinated by the disk cache; pass ``executor=`` to reuse one pool
across sweeps (the attack service does).  Every node is timed in its
worker (:func:`run_node`), and evaluation records carry the telemetry
in ``extra["telemetry"]``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..attacks.network_flow import NetworkFlowAttack
from ..attacks.proximity import ProximityAttack
from ..core.artifacts import (
    artifact_store,
    feature_config_fingerprint,
    features_key,
    layout_key,
    weights_key,
)
from ..core.config import AttackConfig
from ..core.dataset import SplitDataset
from ..eval.timeout import run_with_timeout
from ..obs import trace as obs_trace
from ..pipeline.flow import (
    get_defended_layout,
    get_defended_split,
    trained_attack,
    trained_random_forest,
)
from ..pipeline.parallel import Executor, sweep_executor
from ..split.metrics import candidate_list_recall, ccr
from .spec import ScenarioSpec
from .store import ResultsStore, ScenarioRecord

NodeKey = tuple


@dataclass
class PlanNode:
    """One schedulable unit of a sweep plan."""

    key: NodeKey  # ("layout", tag) / ("train", layer, tag) / ("eval", hash)
    kind: str
    payload: tuple
    deps: tuple[NodeKey, ...] = ()


@dataclass
class SweepPlan:
    specs: list[ScenarioSpec]
    nodes: dict[NodeKey, PlanNode] = field(default_factory=dict)
    reused: list[ScenarioRecord] = field(default_factory=list)
    # artifact nodes dropped because their cached artifact already
    # exists, by kind — the cache-hit side of the telemetry ratio
    pruned: dict[str, int] = field(default_factory=dict)

    def levels(self) -> list[list[PlanNode]]:
        """Topological levels: every node after all of its deps."""
        depth: dict[NodeKey, int] = {}

        def node_depth(key: NodeKey) -> int:
            if key not in depth:
                node = self.nodes[key]
                deps = [d for d in node.deps if d in self.nodes]
                depth[key] = 1 + max(
                    (node_depth(d) for d in deps), default=-1
                )
            return depth[key]

        out: dict[int, list[PlanNode]] = {}
        for key in self.nodes:
            out.setdefault(node_depth(key), []).append(self.nodes[key])
        return [out[level] for level in sorted(out)]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes.values():
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts


@dataclass
class SweepResult:
    """Outcome of one sweep run: one record per spec, in spec order.

    ``train_seconds`` is keyed by (split layer, weight key) —
    one entry per train node that actually ran this sweep.
    """

    specs: list[ScenarioSpec]
    records: list[ScenarioRecord]
    executed: int = 0
    reused: int = 0
    train_seconds: dict[tuple, float] = field(default_factory=dict)

    def record_for(self, spec: ScenarioSpec) -> ScenarioRecord:
        by_hash = {r.scenario_hash: r for r in self.records}
        return by_hash[spec.scenario_hash]


# -- evaluation ---------------------------------------------------------


def evaluate_scenario(spec: ScenarioSpec) -> ScenarioRecord:
    """Run one scenario end-to-end and return its record.

    Uses the attack primitives directly (cached layouts/splits,
    ``trained_attack``, the timeout wrapper); the harness parity tests
    check the CCRs against an oracle built from the same primitives.
    """
    d = spec.defense
    layout = get_defended_layout(spec.design, d.kind, d.strength, d.seed)
    split = get_defended_split(
        spec.design, spec.split_layer, d.kind, d.strength, d.seed
    )
    status = "ok"
    train_seconds = None
    extra: dict = {}
    if spec.attack == "proximity":
        result = ProximityAttack().attack(split)
        value, runtime = ccr(split, result.assignment), result.runtime_s
    elif spec.attack == "rf":
        # [9]-style random forest: single-pick CCR plus the
        # candidate-list metrics the paper's introduction argues about.
        # One fit serves every threshold; a memo hit records no
        # training time, as a loaded DL attack does.
        rf, train_seconds = trained_random_forest(
            spec.split_layer, spec.train_names
        )
        result = rf.attack(split)
        value, runtime = ccr(split, result.assignment), result.runtime_s
        lists = rf.candidate_lists(split, spec.rf_list_threshold)
        extra["rf"] = {
            "list_threshold": spec.rf_list_threshold,
            "list_recall": candidate_list_recall(split, lists.lists),
            "mean_list_size": lists.mean_size(),
            "log10_combinations": sum(
                math.log10(max(len(v), 1)) for v in lists.lists.values()
            ),
        }
    elif spec.attack == "flow":
        flow = NetworkFlowAttack()
        if spec.flow_timeout_s is not None:
            timed = run_with_timeout(
                lambda: flow.attack(split), spec.flow_timeout_s
            )
            if timed.timed_out:
                status, value, runtime = "timeout", None, None
                result = None
            else:
                result = timed.value
                value, runtime = ccr(split, result.assignment), result.runtime_s
        else:
            result = flow.attack(split)
            value, runtime = ccr(split, result.assignment), result.runtime_s
    else:  # dl
        attack = trained_attack(
            spec.split_layer, spec.config, train_names=spec.train_names
        )
        # 0.0 means "loaded from the weight cache" (TrainLog default):
        # record None rather than a fake instant training time.
        train_seconds = attack.log.train_seconds or None
        # Figure 5(b) timing mode runs cache-free: warm feature/embedding
        # caches would hide the image branch's inference cost.  Passed
        # per call, because the attack is shared with later scenarios.
        result = attack.attack(
            split, use_disk_cache=not spec.cache_free_inference
        )
        value, runtime = ccr(split, result.assignment), result.runtime_s
    if result is not None:
        # What the attack reported about its ceiling (candidate recall,
        # flow k-NN recall and capacity use).
        extra.update(result.extra)
    return ScenarioRecord(
        scenario_hash=spec.scenario_hash,
        scenario=spec.to_dict(),
        status=status,
        ccr=value,
        runtime_s=runtime,
        n_sink_fragments=len(split.sink_fragments),
        n_source_fragments=len(split.source_fragments),
        hidden_pins=split.n_hidden_sink_pins,
        wirelength=layout.total_wirelength(),
        train_seconds=train_seconds,
        extra=extra,
    )


# -- worker jobs (module-level: picklable) ------------------------------


def _layout_job(design: str, kind: str, strength: float, seed: int) -> str:
    get_defended_layout(design, kind, strength, seed)
    return layout_key(design, kind, strength, seed)


def _features_job(
    design: str,
    kind: str,
    strength: float,
    seed: int,
    split_layer: int,
    config_payload: dict,
) -> int:
    """Warm the feature-tensor cache for one (layout, layer, config)."""
    split = get_defended_split(design, split_layer, kind, strength, seed)
    dataset = SplitDataset(split, AttackConfig.from_dict(config_payload))
    return len(dataset.groups)


def _train_job(
    split_layer: int, config_payload: dict, train_names: tuple[str, ...]
) -> float:
    attack = trained_attack(
        split_layer, AttackConfig.from_dict(config_payload), train_names
    )
    return attack.log.train_seconds


def _eval_job(spec_payload: dict) -> dict:
    return evaluate_scenario(ScenarioSpec.from_dict(spec_payload)).to_dict()


_NODE_JOBS = {
    "layout": _layout_job,
    "features": _features_job,
    "train": _train_job,
    "eval": _eval_job,
}


def run_node(kind: str, payload: tuple):
    """Execute one plan node; returns (kind, value, wall-clock seconds).

    Module-level and picklable, so it is the unit both ``run_sweep``
    levels and the service scheduler dispatch through the executor;
    the timing is measured inside the worker process.
    """
    started = time.perf_counter()
    value = _NODE_JOBS[kind](*payload)
    return kind, value, time.perf_counter() - started



# -- planning -----------------------------------------------------------


def plan_sweep(
    specs: list[ScenarioSpec],
    store: ResultsStore | None = None,
    resume: bool = True,
) -> SweepPlan:
    """Plan a sweep: dedup shared artifacts, drop cached work.

    With ``resume`` (the default), scenarios whose hash is already in
    ``store`` are resolved from it, and artifact nodes whose cache file
    exists are pruned (their consumers load them lazily).
    """
    plan = SweepPlan(specs=list(specs))
    artifacts = artifact_store()
    wanted: set[NodeKey] = set()

    def add_node(node: PlanNode) -> None:
        if node.key not in plan.nodes:
            plan.nodes[node.key] = node

    def layout_node(design: str, kind: str, strength: float, seed: int):
        key = ("layout", layout_key(design, kind, strength, seed))
        add_node(
            PlanNode(key, "layout", (design, kind, strength, seed))
        )
        return key

    def features_node(
        design: str,
        kind: str,
        strength: float,
        seed: int,
        split_layer: int,
        config: AttackConfig,
    ):
        key = (
            "features",
            layout_key(design, kind, strength, seed),
            split_layer,
            feature_config_fingerprint(config),
        )
        add_node(
            PlanNode(
                key,
                "features",
                (design, kind, strength, seed, split_layer, config.to_dict()),
                deps=(layout_node(design, kind, strength, seed),),
            )
        )
        return key

    for spec in plan.specs:
        if resume and store is not None:
            cached = store.get(spec.scenario_hash)
            if cached is not None:
                plan.reused.append(cached)
                continue
        d = spec.defense
        deps = [layout_node(spec.design, d.kind, d.strength, d.seed)]
        # Train/features nodes only pay off when the disk cache can
        # persist their artifact; without a disk cache each evaluation
        # recomputes in-process anyway, so scheduling them would just
        # do the work one extra time and discard the result.
        if spec.attack == "dl" and artifacts.root is not None:
            train_key = (
                "train",
                spec.split_layer,
                weights_key(spec.config, spec.split_layer, spec.train_names),
            )
            # The trainer renders one feature-tensor set per corpus
            # design; warming them as explicit nodes lets concurrent
            # sweeps (and the service's cross-job merge) share the
            # renders instead of paying them inside each train node.
            train_deps = tuple(
                features_node(
                    name, "none", 0.0, 0, spec.split_layer, spec.config
                )
                for name in spec.train_names
            )
            add_node(
                PlanNode(
                    train_key,
                    "train",
                    (
                        spec.split_layer,
                        spec.config.to_dict(),
                        spec.train_names,
                    ),
                    deps=train_deps,
                )
            )
            deps.append(train_key)
            if not spec.cache_free_inference:
                # Figure 5's timing mode deliberately re-extracts at
                # evaluation time, so warming its cache is wasted work.
                deps.append(
                    features_node(
                        spec.design, d.kind, d.strength, d.seed,
                        spec.split_layer, spec.config,
                    )
                )
        elif spec.attack == "rf":
            # The forest trains in-eval (no weight cache) but needs the
            # corpus layouts on disk before workers can share them.
            deps.extend(
                layout_node(name, "none", 0.0, 0)
                for name in spec.train_names
            )
        eval_key = ("eval", spec.scenario_hash)
        add_node(
            PlanNode(eval_key, "eval", (spec.to_dict(),), deps=tuple(deps))
        )
        wanted.add(eval_key)

    # Prune: keep eval nodes, and artifact nodes that (a) feed a kept
    # node transitively and (b) are not already materialised on disk.
    keep: set[NodeKey] = set()
    seen: set[NodeKey] = set()

    def cached_on_disk(node: PlanNode) -> bool:
        if node.kind == "layout":
            return artifacts.exists("layout", layout_key(*node.payload))
        if node.kind == "features":
            design, kind, strength, seed, layer, cfg = node.payload
            if not artifacts.exists(
                "layout", layout_key(design, kind, strength, seed)
            ):
                # Layout not built yet: the key depends on its content,
                # so the warm-up cannot be proven cached — keep it.
                return False
            split = get_defended_split(design, layer, kind, strength, seed)
            key = features_key(split, AttackConfig.from_dict(cfg))
            return artifacts.exists("features", key)
        if node.kind == "train":
            return artifacts.exists("weights", node.key[2])
        return False

    def visit(key: NodeKey) -> None:
        if key in seen or key not in plan.nodes:
            return
        seen.add(key)
        node = plan.nodes[key]
        if cached_on_disk(node):
            plan.pruned[node.kind] = plan.pruned.get(node.kind, 0) + 1
            return
        keep.add(key)
        for dep in node.deps:
            visit(dep)

    for key in wanted:
        visit(key)
    plan.nodes = {k: v for k, v in plan.nodes.items() if k in keep}
    return plan


# -- execution ----------------------------------------------------------


def attach_node_telemetry(
    record: ScenarioRecord, seconds: float, plan: SweepPlan
) -> None:
    """Write per-node wall-clock + plan cache stats into ``extra``.

    ``node_seconds`` is the eval node's in-worker
    :func:`time.perf_counter` delta; ``started_at`` is a best-effort
    epoch (stamped at attach time minus the delta — the node ran in a
    worker process, which has no shared epoch to report) kept solely
    for correlating records with logs and traces.
    ``cache_hits``/``planned`` describe the sweep plan the node ran in
    (artifact nodes pruned because their cached artifact existed vs
    scheduled), which is what the ``repro report`` cache-hit ratio
    aggregates.
    """
    telemetry = {
        "node_seconds": seconds,
        "started_at": round(time.time() - seconds, 6),
        "planned": plan.counts(),
        "cache_hits": dict(plan.pruned),
    }
    trace_id = obs_trace.current_trace_id()
    if trace_id:
        telemetry["trace_id"] = trace_id
    record.extra["telemetry"] = telemetry


def run_sweep(
    specs: list[ScenarioSpec],
    store: ResultsStore | None = None,
    workers: int | None = None,
    progress=None,
    resume: bool = True,
    executor: Executor | None = None,
    on_node=None,
) -> SweepResult:
    """Plan and execute a sweep, recording results into ``store``.

    Results for all specs — freshly evaluated and store-resolved — come
    back in spec order.  ``workers`` / ``REPRO_WORKERS`` fan each DAG
    level out over worker processes (requires the disk cache: workers
    share artifacts through it); pass a long-lived
    :class:`~repro.pipeline.parallel.Executor` instead to reuse one
    pool across many sweeps.  ``on_node(node, value, seconds)`` fires
    after every completed node — the service scheduler's telemetry
    hook.
    """
    # One trace per sweep: a child of the ambient context when the
    # scheduler (or an HTTP request) is already tracing, a fresh root
    # trace for plain CLI/library runs — `repro trace` works on both.
    with obs_trace.span("sweep.run", specs=len(specs)) as sweep_span:
        return _run_sweep_traced(
            specs, store, workers, progress, resume, executor, on_node,
            sweep_span,
        )


def _run_sweep_traced(
    specs, store, workers, progress, resume, executor, on_node,
    sweep_span,
) -> SweepResult:
    with obs_trace.span("sweep.plan"):
        plan = plan_sweep(specs, store=store, resume=resume)
    owns_executor = executor is None
    if owns_executor:
        executor = sweep_executor(workers)
    by_hash: dict[str, ScenarioRecord] = {
        r.scenario_hash: r for r in plan.reused
    }
    result = SweepResult(
        specs=plan.specs, records=[], reused=len(plan.reused)
    )

    levels = plan.levels()
    if progress and plan.nodes:
        counts = plan.counts()
        progress(
            "sweep plan: "
            + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
            + f" nodes in {len(levels)} levels"
            + (f" ({result.reused} scenarios from store)" if result.reused else "")
        )
    executed = 0
    try:
        for depth, level in enumerate(levels):
            with obs_trace.span(
                "sweep.level", depth=depth, nodes=len(level)
            ):
                outcomes = executor.map(
                    run_node,
                    [(node.kind, node.payload) for node in level],
                    progress=progress,
                    label="sweep nodes",
                )
                level_records: list[ScenarioRecord] = []
                for node, (kind, value, seconds) in zip(level, outcomes):
                    # Nodes are timed inside worker processes, so their
                    # spans are synthesized here from the returned delta.
                    obs_trace.record_span(
                        f"node.{kind}", seconds, kind=kind
                    )
                    if kind == "train":
                        # Keyed by (layer, weight key): a grid
                        # may train several configs at one layer (e.g.
                        # figure5).
                        result.train_seconds[
                            (node.payload[0], node.key[2])
                        ] = value
                    elif kind == "eval":
                        record = ScenarioRecord.from_dict(value)
                        attach_node_telemetry(record, seconds, plan)
                        by_hash[record.scenario_hash] = record
                        level_records.append(record)
                    if on_node is not None:
                        on_node(node, value, seconds)
                # Persist level by level, so an interrupt or a failing
                # node in a later level loses at most the in-flight
                # level — finished evaluations resume from the store on
                # re-run.
                if store is not None:
                    store.add_many(level_records)
                executed += len(level_records)
    finally:
        if owns_executor:
            executor.close()
    result.executed = executed
    result.records = [by_hash[s.scenario_hash] for s in plan.specs]
    sweep_span.set_attr("executed", executed)
    sweep_span.set_attr("reused", result.reused)
    return result

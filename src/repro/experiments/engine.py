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

One driver, :class:`SweepDriver`, executes plans: it dispatches every
ready node (all dependencies done) as one batch through a
:class:`repro.pipeline.parallel.Executor`, so ``workers=`` /
``REPRO_WORKERS`` fan each batch out over processes coordinated by the
disk cache.  :func:`run_sweep` drains a fresh driver over one plan (its
ready batches are the plan's topological levels); the service
scheduler keeps one across its jobs.  Every node is timed in its
worker (:func:`run_node`) and settled as it returns: evaluation
records carry the telemetry in ``extra["telemetry"]``.
"""

from __future__ import annotations

import math
import time
import traceback
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

    Module-level and picklable, so it is the unit the driver
    dispatches through the executor; the timing is measured inside the
    worker process.
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


def node_event(node: PlanNode, seconds: float) -> dict:
    """The ``node`` progress event of one finished node, as keyword
    arguments of an ``emit(kind, message, **data)`` call."""
    return {
        "message": f"{node.kind} node done in {seconds:.2f}s",
        "node_kind": node.kind,
        "key": repr(node.key),
        "seconds": seconds,
    }


def _safe_node(run, kind: str, payload: tuple):
    """``run(kind, payload)`` plus its failure, returned instead of
    raised — ``None`` or ``(exception, formatted traceback)`` — so one
    bad node cannot take down a batch shared across owners."""
    try:
        return (*run(kind, payload), None)
    except Exception as err:  # repro: ignore[broad-except] failure returns as data (exception + traceback) for the driver to triage
        return kind, None, 0.0, (err, traceback.format_exc(limit=8))


class PlanOwner:
    """One plan in a :class:`SweepDriver` table (a ``run_sweep`` call
    or a service job) and the node keys it still waits on.  Its node
    spans land in ``trace_id`` under ``root_span_id`` (None: under the
    span ambient when the node settles)."""

    priority = 0

    def __init__(self, owner_id: str, plan: SweepPlan,
                 trace_id: str | None = None,
                 root_span_id: str | None = None):
        self.owner_id = owner_id
        self.plan = plan
        self.remaining: set[NodeKey] = set(plan.nodes)
        self.node_seconds: dict[str, float] = {}
        self.executed = 0
        self.trace_id = trace_id
        self.root_span_id = root_span_id


class SweepDriver:
    """The one DAG driver: a merged table of plan nodes, drained in
    ready batches through an :class:`~repro.pipeline.parallel.Executor`.

    Node keys are content-derived, so owners wanting the same artifact
    share one node, and a key the driver executed never runs again.
    A ready batch is every node whose dependencies are done or pruned
    from the table, highest owner priority first, else in insertion
    order.  Each node settles as the executor hands it back: a
    ``node.<kind>`` span per owner, the eval record (telemetry
    attached) appended to ``store``, ``on_node(node, value, seconds)``
    (``value`` is that record for eval nodes), then the owners'
    progress.  A failed node fails its owners: here that raises its
    exception; the service scheduler overrides the owner hooks.
    """

    worker_id: str | None = None

    def __init__(self, executor: Executor, store: ResultsStore | None = None,
                 on_node=None):
        self.executor = executor
        self.store = store
        self.on_node = on_node
        self._active: dict[str, PlanOwner] = {}
        # _nodes/_owners hold only not-yet-executed nodes of active
        # owners; _done is the driver-lifetime memo of executed keys
        # (small: one tuple per artifact ever built).
        self._nodes: dict[NodeKey, PlanNode] = {}
        self._owners: dict[NodeKey, list[str]] = {}
        self._done: set[NodeKey] = set()
        self._failed: dict[NodeKey, tuple] = {}
        self.nodes_executed = 0

    def _admit(self, owner: PlanOwner):
        """Add ``owner``'s plan; returns the failure of a plan node that
        already failed here (registering nothing), else None."""
        for key in owner.plan.nodes:
            if key in self._failed:
                return self._failed[key]
        for key, node in owner.plan.nodes.items():
            if key in self._done:
                owner.remaining.discard(key)
            else:
                self._nodes.setdefault(key, node)
                self._owners.setdefault(key, []).append(owner.owner_id)
        if owner.remaining:
            self._active[owner.owner_id] = owner
        return None

    def _ready_batch(self) -> list[PlanNode]:
        ready = [
            node
            for key, node in self._nodes.items()
            if key not in self._done
            and key not in self._failed
            and all(
                dep in self._done or dep not in self._nodes
                for dep in node.deps
            )
        ]
        # Highest-priority owner first; insertion order breaks ties.
        ready.sort(key=self._priority, reverse=True)
        return ready

    def _priority(self, node: PlanNode) -> int:
        return max(
            (
                self._active[j].priority
                for j in self._owners.get(node.key, ())
                if j in self._active
            ),
            default=0,
        )

    def _run_batch(self, batch: list[PlanNode], run=run_node) -> None:
        nodes = iter(batch)
        self.executor.map(
            _safe_node,
            [(run, node.kind, node.payload) for node in batch],
            on_result=lambda outcome: self._settle(next(nodes), *outcome),
        )

    def _settle(self, node: PlanNode, kind, value, seconds, failure):
        owners = [
            self._active[j]
            for j in self._owners.get(node.key, ())
            if j in self._active
        ]
        self._node_settled(node, seconds, failure, owners)
        # Nodes are timed inside worker processes, so their spans are
        # synthesized here from the returned delta.
        attrs = {"kind": node.kind}
        if self.worker_id:
            attrs["worker"] = self.worker_id
        for owner in owners:
            obs_trace.record_span(
                f"node.{node.kind}", seconds,
                trace_id=owner.trace_id, parent_id=owner.root_span_id,
                status="ok" if failure is None else "error", **attrs,
            )
        if failure is not None:
            self._failed[node.key] = failure
            for owner in self._drop(self._owners.get(node.key, ())):
                self._owner_failed(owner, failure)
            return
        self._done.add(node.key)
        self.nodes_executed += 1
        if node.kind == "eval":
            value = self._eval_record(value, seconds, owners)
            if self.store is not None:
                self.store.add(value)
        if self.on_node is not None:
            # After the node's durable effects, before its progress:
            # a service hook raising here leaves the job journal
            # exactly as a mid-sweep kill would.
            self.on_node(node, value, seconds)
        for owner in owners:
            if node.key in owner.remaining:
                owner.remaining.discard(node.key)
                owner.executed += 1
                owner.node_seconds[repr(node.key)] = seconds
                self._progressed(owner, node, seconds)
                if not owner.remaining:
                    self._finish(owner)
        # Executed nodes leave the ready-scan tables; the _done memo
        # is all later plans need, and the scan stays O(outstanding)
        # instead of O(everything ever run).
        self._nodes.pop(node.key, None)
        self._owners.pop(node.key, None)

    def _eval_record(self, value: dict, seconds: float, owners):
        """The stored record, with ``extra["telemetry"]``: the node's
        in-worker seconds, a best-effort ``started_at`` epoch (now minus
        the delta; kept only to correlate records with logs and
        traces), and the first owner's plan counts and cache hits (what
        the ``repro report`` cache-hit ratio aggregates) and trace."""
        record = ScenarioRecord.from_dict(value)
        plan = owners[0].plan if owners else SweepPlan(specs=[])
        telemetry = {
            "node_seconds": seconds,
            "started_at": round(time.time() - seconds, 6),
            "planned": plan.counts(),
            "cache_hits": dict(plan.pruned),
        }
        if owners and owners[0].trace_id:
            telemetry["trace_id"] = owners[0].trace_id
        record.extra["telemetry"] = telemetry
        return record

    def _drop(self, owner_ids) -> list[PlanOwner]:
        """Deactivate owners; their nodes leave the table unless an
        active owner still wants them.  Returns the dropped owners."""
        dropped = [
            self._active.pop(i) for i in list(owner_ids) if i in self._active
        ]
        for owner in dropped:
            for owners in self._owners.values():
                if owner.owner_id in owners:
                    owners.remove(owner.owner_id)
        if dropped:
            self._prune_unreachable()
        return dropped

    def _prune_unreachable(self) -> None:
        # Nodes no remaining active owner wants (transitively) must
        # leave the ready scan, or it would re-dispatch work nobody is
        # waiting for.
        closure = {
            k for owner in self._active.values() for k in owner.remaining
        }
        changed = True
        while changed:
            changed = False
            for k in list(closure):
                node = self._nodes.get(k)
                if node is None:
                    continue
                for dep in node.deps:
                    if dep in self._nodes and dep not in closure:
                        closure.add(dep)
                        changed = True
        for k in list(self._nodes):
            if k not in closure and k not in self._done:
                del self._nodes[k]
                self._owners.pop(k, None)

    # -- owner hooks, overridden by the service scheduler -------------
    def _node_settled(self, node, seconds, failure, owners) -> None:
        pass

    def _progressed(self, owner: PlanOwner, node, seconds) -> None:
        pass

    def _finish(self, owner: PlanOwner) -> None:
        self._active.pop(owner.owner_id, None)

    def _owner_failed(self, owner: PlanOwner, failure: tuple) -> None:
        raise failure[0]  # every node settled before it is stored


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
    back in spec order.  ``workers`` / ``REPRO_WORKERS`` fan each ready
    batch out over worker processes (requires the disk cache: workers
    share artifacts through it); pass a long-lived
    :class:`~repro.pipeline.parallel.Executor` instead to reuse one
    pool across many sweeps.  ``on_node(node, value, seconds)`` fires
    as each node completes, after its record is stored (``value`` is
    that record for eval nodes).  A failing node raises its own
    exception once every node settled before it is stored.
    """
    # One trace per sweep: a child of the ambient context when the
    # scheduler (or an HTTP request) is already tracing, a fresh root
    # trace for plain CLI/library runs — `repro trace` works on both.
    with obs_trace.span("sweep.run", specs=len(specs)) as sweep_span:
        with obs_trace.span("sweep.plan"):
            plan = plan_sweep(specs, store=store, resume=resume)
        by_hash = {r.scenario_hash: r for r in plan.reused}
        result = SweepResult(
            specs=plan.specs, records=[], reused=len(plan.reused)
        )
        if progress and plan.nodes:
            counts = sorted(plan.counts().items())
            progress(
                "sweep plan: " + ", ".join(f"{v} {k}" for k, v in counts)
                + " nodes"
                + (f" ({result.reused} scenarios from store)"
                   if result.reused else "")
            )

        def collect(node: PlanNode, value, seconds: float) -> None:
            if node.kind == "train":
                # Keyed by (layer, weight key): a grid may train several
                # configs at one layer (e.g. figure5).
                result.train_seconds[(node.payload[0], node.key[2])] = value
            elif node.kind == "eval":
                by_hash[value.scenario_hash] = value
                result.executed += 1
            if progress:
                progress(f"sweep nodes: {driver.nodes_executed}/"
                         f"{len(plan.nodes)} done")
            if on_node is not None:
                on_node(node, value, seconds)

        # A fresh one-owner table per call, so resume=False re-runs
        # every planned node; node spans land under the batch span.
        driver = SweepDriver(executor or sweep_executor(workers), store,
                             on_node=collect)
        driver._admit(PlanOwner("sweep", plan, obs_trace.current_trace_id()))
        try:
            while batch := driver._ready_batch():
                with obs_trace.span("sweep.batch", nodes=len(batch)):
                    driver._run_batch(batch)
        finally:
            if executor is None:
                driver.executor.close()
        result.records = [by_hash[s.scenario_hash] for s in plan.specs]
        sweep_span.set_attr("executed", result.executed)
        sweep_span.set_attr("reused", result.reused)
        return result

"""The three benchmark workloads: cold-attack, warm-service, train-epoch.

Each workload prepares its own scratch state under the run's work
directory (``setup``) and then runs *passes* of identical work
(``run_pass``), recording every request's latency and every failure in
an :class:`Outcome`.  A failure -- wrong CCR, wrong loss, timeout, HTTP
error or exception -- is counted and the pass goes on.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Client
from repro.core.attack import DLAttack
from repro.core.config import AttackConfig
from repro.core.dataset import SplitDataset
from repro.experiments.spec import ScenarioSpec
from repro.experiments.store import ResultsStore
from repro.netlist.benchmarks import TABLE3_SPECS
from repro.pipeline import flow
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.server import AttackService

#: the committed artifact cache (layouts, features, embeddings, weights)
COMMITTED_CACHE = Path(".repro_cache")
JOB_TIMEOUT_S = 60.0
FLOW_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")
# Relative tolerance of the pinned train-epoch loss.
LOSS_RTOL = 1e-6


def cell(design: str, split_layer: int, attack: str) -> str:
    """Key of one golden CCR: ``design/M<layer>/<attack>``."""
    return f"{design}/M{split_layer}/{attack}"


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it
    (100, i.e. the maximum, when there are too few samples)."""
    return math.floor(100 * (n - 10) / n) if n > 10 else 100


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """What the measured passes did."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    items: float = 0.0  # scenarios, or trained sample groups
    busy_s: float = 0.0  # time the items took
    job_latencies: list[tuple[str, float]] = field(default_factory=list)
    query_latencies_s: list[float] = field(default_factory=list)
    queue_waits_s: list[float] = field(default_factory=list)
    passes: int = 0

    def attempt(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(error)


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _sha256_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _use_cache(path: Path) -> None:
    """Point the program at ``path`` with empty in-process memos, and
    collect the garbage they held so each pass starts from a clean heap."""
    os.environ["REPRO_CACHE_DIR"] = str(path)
    flow.clear_memo()
    gc.collect()


def _ccr_error(what: str, got, golden: dict, key: str) -> str | None:
    want = golden.get(key)
    if want is None:
        return f"{what}: no golden CCR for {key}"
    if got is None or abs(got - want) > 1e-9:
        return f"{what}: CCR {got!r} != golden {want!r}"
    return None


class ColdAttack:
    """30 Table-3 cells, each run from an empty artifact cache.

    Every scenario starts from a cache holding only the committed trained
    weights and from cleared in-process memos, so it pays place-and-route,
    candidate selection, feature rendering, embedding and the cache
    writes -- the first run of that cell.  Scenarios go one at a time
    through the inline ``Client`` on the main thread.
    """

    name = "cold-attack"
    setup_repeats = 5
    nominal_pass_s = 8.0
    # 88 to 299 sink fragments at M1.  Larger designs made one pass too
    # long to measure each cell twice per run within the time budget.
    DESIGNS = ("c432", "c880", "c1355", "c1908", "c2670")
    ATTACKS = ("proximity", "flow", "dl")

    def __init__(self, work: Path, golden: dict, seed: int, smoke: bool):
        self.work = work
        self.golden = golden["ccr"]
        config = AttackConfig.benchmark()
        designs = self.DESIGNS[:1] if smoke else self.DESIGNS
        layers = (3,) if smoke else (1, 3)
        self.specs = [
            ScenarioSpec(
                design=design,
                split_layer=layer,
                attack=attack,
                config=config if attack == "dl" else None,
                flow_timeout_s=FLOW_TIMEOUT_S if attack == "flow" else None,
            )
            for design in designs
            for layer in layers
            for attack in self.ATTACKS
        ]
        random.Random(seed).shuffle(self.specs)
        # The smallest design's M3 cells, run in set-up so that the
        # one-time costs of a fresh process (lazy imports, BLAS start-up)
        # land on no measured cell, whichever the seed puts first.
        self.warm_up = [
            spec for spec in self.specs
            if spec.design == self.DESIGNS[0] and spec.split_layer == 3
        ]
        self.weights = [
            COMMITTED_CACHE / flow.attack_weight_path(config, layer).name
            for layer in layers
        ]
        self._n_pass = 0

    def setup(self) -> None:
        seed_dir = _fresh_dir(self.work / "weights")
        for path in self.weights:
            shutil.copyfile(path, seed_dir / path.name)
        copied = _sha256_tree(seed_dir)
        for path in self.weights:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if copied[path.name] != digest:
                raise RuntimeError(f"weight copy mismatch: {path.name}")
        self.seed_dir = seed_dir
        with Client(store=False) as client:
            for spec in self.warm_up:
                self._reset_cache()
                client.run([spec])

    def _reset_cache(self) -> None:
        cache = self.work / "cache"
        if cache.exists():
            shutil.rmtree(cache)
        shutil.copytree(self.seed_dir, cache)
        _use_cache(cache)

    def run_pass(self, outcome: Outcome) -> None:
        self._n_pass += 1
        store = _fresh_dir(self.work / f"pass{self._n_pass}") / "store.jsonl"
        with Client(store=ResultsStore(store)) as client:
            for spec in self.specs:
                self._reset_cache()
                what = cell(spec.design, spec.split_layer, spec.attack)
                started = time.perf_counter()
                error = None
                try:
                    record = client.run([spec]).records[0]
                except Exception as err:  # counted, the pass goes on
                    record, error = None, f"{what}: {err!r}"
                elapsed = time.perf_counter() - started
                if record is not None:
                    if record.status != "ok":
                        error = f"{what}: status {record.status}"
                    else:
                        error = _ccr_error(what, record.ccr, self.golden, what)
                outcome.attempt(error)
                outcome.items += 1
                outcome.busy_s += elapsed
                outcome.job_latencies.append((what, elapsed))


class WarmService:
    """56 Table-3 cells served from a warm cache by an in-process service.

    14 designs x {M1, M3}; one job per (design, layer) carrying its dl
    and proximity scenarios, submitted by one client connection in a
    closed loop.  Each job is followed over SSE to its terminal event, its
    records are read back and checked, and one paginated ``GET /results``
    read for that design follows.  Every pass gets a fresh service with an
    empty results store and job journal and cleared in-process memos, so
    every job executes.

    The seed orders the designs; a design's M1 job always precedes its M3
    job, so the M1 job is the one that parses the DEF and a job's latency
    does not depend on the order.  (With two clients, a job's latency
    mostly measured which job it queued behind, and so moved with the
    order too.)
    """

    name = "warm-service"
    setup_repeats = 3
    nominal_pass_s = 5.0
    ATTACKS = ("dl", "proximity")
    # The two largest designs took a third of a pass; without them three
    # passes, enough for a steady median, fit the run-time budget.
    LEFT_OUT = ("b17_1", "b18")

    def __init__(self, work: Path, golden: dict, seed: int, smoke: bool):
        self.work = work
        self.golden = golden["ccr"]
        self.seed = seed
        config = AttackConfig.benchmark()
        designs = ("c432", "c880") if smoke else [
            s.name for s in TABLE3_SPECS if s.name not in self.LEFT_OUT
        ]
        self.designs = designs
        # design -> its jobs in layer order, each job one spec per attack
        self.jobs = {
            design: [
                [
                    ScenarioSpec(
                        design=design,
                        split_layer=layer,
                        attack=attack,
                        config=config if attack == "dl" else None,
                    )
                    for attack in self.ATTACKS
                ]
                for layer in (1, 3)
            ]
            for design in designs
        }
        self._n_pass = 0

    def setup(self) -> None:
        cache = self.work / "cache"
        if cache.exists():
            shutil.rmtree(cache)
        shutil.copytree(COMMITTED_CACHE, cache)
        if _sha256_tree(cache) != _sha256_tree(COMMITTED_CACHE):
            raise RuntimeError("artifact cache copy differs from the original")
        _use_cache(cache)
        # One job through a throw-away service, so that the one-time costs
        # of a fresh process land on no measured job.
        service = self._start_service(_fresh_dir(self.work / "probe"))
        try:
            client = ServiceClient(service.url, timeout=JOB_TIMEOUT_S)
            job_id = client.submit(
                specs=[spec.to_dict() for spec in self.jobs[self.designs[0]][0]]
            )["job"]["job_id"]
            for _event in client.events(job_id, timeout=JOB_TIMEOUT_S):
                pass
        finally:
            service.stop()
        self.cache = cache

    def _start_service(self, directory: Path) -> AttackService:
        return AttackService(
            store=ResultsStore(directory / "store.jsonl"),
            queue_path=directory / "queue.jsonl",
            workers=1,
        ).start()

    def run_pass(self, outcome: Outcome) -> None:
        self._n_pass += 1
        _use_cache(self.cache)
        rng = random.Random(f"{self.seed}:{self._n_pass}")
        designs = list(self.designs)
        rng.shuffle(designs)
        order = [job for design in designs for job in self.jobs[design]]
        queries = [
            {
                "limit": rng.choice((1, 2, 4, 8)),
                "order": rng.choice(("asc", "desc")),
                "split_layer": rng.choice((None, specs[0].split_layer)),
                "attack": rng.choice((None, *self.ATTACKS)),
            }
            for specs in order
        ]
        service = self._start_service(
            _fresh_dir(self.work / f"pass{self._n_pass}")
        )
        try:
            client = ServiceClient(service.url, timeout=JOB_TIMEOUT_S)
            started = time.perf_counter()
            for specs, query in zip(order, queries):
                outcome.attempt(self._one_job(client, specs, query, outcome))
                outcome.items += len(specs)
            outcome.busy_s += time.perf_counter() - started
        finally:
            service.stop()

    def _one_job(self, client, specs, query, outcome) -> str | None:
        design = specs[0].design
        what = f"{design}/M{specs[0].split_layer}"
        started = time.perf_counter()
        latency = queue_wait = None
        try:
            job_id = client.submit(
                specs=[spec.to_dict() for spec in specs]
            )["job"]["job_id"]
            terminal = None
            for event in client.events(job_id, timeout=JOB_TIMEOUT_S):
                if event["kind"] == "node" and queue_wait is None:
                    queue_wait = time.perf_counter() - started
                if event["kind"] in TERMINAL:
                    terminal = event
            latency = time.perf_counter() - started
            if terminal is None or terminal["kind"] != "done":
                return f"{what}: job ended {terminal and terminal['kind']}"
            records = client.job(job_id).get("records") or []
            if len(records) != len(specs):
                return f"{what}: job returned {len(records)} records"
            for record in records:
                error = self._record_error(what, record)
                if error:
                    return error
            query_started = time.perf_counter()
            page = client.results_page(design=design, **query)
            query_s = time.perf_counter() - query_started
            outcome.query_latencies_s.append(query_s)
            return self._check_page(what, design, query, page)
        except (ServiceClientError, TimeoutError, OSError, KeyError,
                ValueError) as err:
            return f"{what}: {err!r}"
        finally:
            outcome.job_latencies.append((
                what,
                latency if latency is not None
                else time.perf_counter() - started,
            ))
            if queue_wait is not None:
                outcome.queue_waits_s.append(queue_wait)

    def _record_error(self, what, record) -> str | None:
        scenario = record["scenario"]
        key = cell(
            scenario["design"], scenario["split_layer"], scenario["attack"]
        )
        return _ccr_error(what, record["ccr"], self.golden, key)

    def _check_page(self, what, design, query, page) -> str | None:
        records = page["records"]
        if page["total"] < 1 or len(records) != min(
            query["limit"], page["total"]
        ):
            return f"{what}: results page {len(records)}/{page['total']}"
        for record in records:
            scenario = record["scenario"]
            if scenario["design"] != design or any(
                query[name] is not None and scenario[name] != query[name]
                for name in ("split_layer", "attack")
            ):
                return f"{what}: query returned {scenario}"
            error = self._record_error(f"{what} query", record)
            if error:
                return error
        return None


class TrainEpoch:
    """One epoch of ``DLAttack.train`` at M3 on 5 of the 9 training designs.

    ``AttackConfig.benchmark()`` with one epoch and its fixed config seed,
    so the loss can be pinned; the ``--seed`` does not change this
    workload's inputs.  The 5 designs hold 187 of the corpus's 383
    trainable groups.  Set-up builds their feature tensors into a scratch
    copy of the cache, so the epoch reads them warm.
    """

    name = "train-epoch"
    setup_repeats = 3
    nominal_pass_s = 12.0
    SPLIT_LAYER = 3
    DESIGNS = ("train_alu2", "train_apex7", "train_frg2", "train_i9",
               "train_t481")

    def __init__(self, work: Path, golden: dict, seed: int, smoke: bool):
        self.work = work
        limit = 8 if smoke else AttackConfig.benchmark().max_train_groups_per_design
        self.config = AttackConfig.benchmark().with_(
            epochs=1, max_train_groups_per_design=limit
        )
        self.golden_loss = golden["loss"][
            "train-epoch.smoke" if smoke else "train-epoch"
        ]

    def setup(self) -> None:
        cache = self.work / "cache"
        if cache.exists():
            shutil.rmtree(cache)
        shutil.copytree(COMMITTED_CACHE, cache)
        _use_cache(cache)
        self.splits = [
            flow.get_split(name, self.SPLIT_LAYER) for name in self.DESIGNS
        ]
        limit = self.config.max_train_groups_per_design
        self.groups = 0
        for split in self.splits:
            labeled = len(SplitDataset(split, self.config).trainable_groups())
            self.groups += labeled if limit is None else min(labeled, limit)

    def run_pass(self, outcome: Outcome) -> None:
        attack = DLAttack(self.config, self.SPLIT_LAYER)
        started = time.perf_counter()
        error = None
        try:
            loss = attack.train(self.splits).losses[-1]
            if abs(loss - self.golden_loss) > LOSS_RTOL * abs(self.golden_loss):
                error = f"train-epoch: loss {loss!r} != golden {self.golden_loss!r}"
        except Exception as err:  # counted, the run goes on
            error = f"train-epoch: {err!r}"
        elapsed = time.perf_counter() - started
        outcome.attempt(error)
        outcome.items += self.groups
        outcome.busy_s += elapsed
        outcome.job_latencies.append((self.name, elapsed))


WORKLOADS = {w.name: w for w in (ColdAttack, WarmService, TrainEpoch)}


def summarize(outcome: Outcome) -> dict:
    """End-to-end figures of the measured passes (None where none)."""
    def latency(values):
        if not values:
            return None
        pct = tail_percentile(len(values))
        return {
            "p50_ms": statistics.median(values) * 1e3,
            "tail_ms": percentile(values, pct) * 1e3,
            "tail_percentile": pct,
            "n": len(values),
        }

    return {
        "items_per_s": outcome.items / outcome.busy_s if outcome.busy_s else 0.0,
        "job": latency([s for _label, s in outcome.job_latencies]),
        "query": latency(outcome.query_latencies_s),
        "queue_wait": latency(outcome.queue_waits_s),
    }

"""Span tracing from outside the program: wrappers around layer entry points.

The traced run installs a wrapper around each public entry point listed in
:data:`ENTRY_POINTS`; the untraced run installs nothing.  A wrapper records
one span per call -- ``(span_id, parent_id, name, start, end, thread)`` --
in memory, and optionally feeds a per-layer counter from the call's
arguments or result (candidate counts, images embedded, GFLOP...).

Self time is computed by a sweep over the spans: every instant of the
traced wall time goes to the open span that started last (the innermost
one on a single thread; across threads, the most recent entrant, which
under the interpreter lock is the one most likely running).  The instants
no span covers are ``other.self_s``.  Self times plus ``other.self_s``
therefore add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import heapq
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute path).  One span name may cover several
# entry points; class methods are patched on the class, module functions
# in every ``repro`` module that imported them by name.
ENTRY_POINTS = (
    ("layout.build_layout", "repro.layout.design", "build_layout"),
    ("layout.read_def", "repro.layout.def_io", "read_def"),
    ("layout.write_def", "repro.layout.def_io", "write_def"),
    ("split.split_design", "repro.split.split", "split_design"),
    ("candidates.build_candidates", "repro.core.candidates",
     "build_candidates"),
    ("vector_features.group_vector_features", "repro.core.vector_features",
     "group_vector_features"),
    ("image_features.extractor_init", "repro.core.image_features",
     "ImageExtractor.__init__"),
    ("image_features.image", "repro.core.image_features",
     "ImageExtractor.image"),
    ("dataset.SplitDataset", "repro.core.dataset", "SplitDataset.__init__"),
    ("dataset.make_batch", "repro.core.dataset", "make_batch"),
    ("model.embed_images", "repro.core.model", "SplitNet.embed_images"),
    ("model.forward_deduplicated", "repro.core.model",
     "SplitNet.forward_deduplicated"),
    ("model.backward_deduplicated", "repro.core.model",
     "SplitNet.backward_deduplicated"),
    ("model.forward_from_embeddings", "repro.core.model",
     "SplitNet.forward_from_embeddings"),
    ("nn.Conv2D.forward", "repro.nn.layers", "Conv2D.forward"),
    ("nn.Conv2D.backward", "repro.nn.layers", "Conv2D.backward"),
    ("nn.Adam.step", "repro.nn.optim", "Adam.step"),
    ("attack.DLAttack.select", "repro.core.attack", "DLAttack.select"),
    ("attack.DLAttack.load", "repro.core.attack", "DLAttack.load"),
    ("attacks.proximity.select", "repro.attacks.proximity",
     "ProximityAttack.select"),
    ("attacks.network_flow.select", "repro.attacks.network_flow",
     "NetworkFlowAttack.select"),
    ("attacks.network_flow.min_cost_flow", "networkx", "min_cost_flow"),
    ("experiments.plan_sweep", "repro.experiments.engine", "plan_sweep"),
    ("experiments.evaluate_scenario", "repro.experiments.engine",
     "evaluate_scenario"),
    ("experiments.store.append", "repro.experiments.store",
     "ResultsStore.add"),
    ("experiments.store.append", "repro.experiments.store",
     "ResultsStore.add_many"),
    ("experiments.store.query", "repro.experiments.store",
     "ResultsStore.query"),
    ("experiments.store.query", "repro.experiments.store",
     "ResultsStore.count"),
    ("service.JobQueue.submit", "repro.service.queue", "JobQueue.submit"),
    ("service.JobQueue.claim", "repro.service.queue", "JobQueue.claim"),
)


# -- counters fed by the wrappers ----------------------------------------


def _count_candidates(tracer, args, result):
    tracer.count("candidates.build_candidates.calls", 1)
    tracer.count("candidates.sinks", len(result))
    tracer.count("candidates.vpps", sum(len(v) for v in result.values()))


def _count_image(tracer, args, result):
    tracer.count("image_features.images", 1)


def _count_dataset(tracer, args, before, result):
    # A dataset that ran candidate selection missed the feature cache.
    built = tracer.counters["candidates.build_candidates.calls"] > before
    tracer.count("dataset.cache_misses" if built else "dataset.cache_hits", 1)


def _count_batch(tracer, args, result):
    if result.image_batch is not None:
        tracer.count("dataset.batch_unique_images", result.image_batch.shape[0])
        tracer.count(
            "dataset.batch_image_refs",
            result.src_gather.size + result.sink_gather.size,
        )


def _count_embed(tracer, args, result):
    tracer.count("model.embed_images.images", args[1].shape[0])


def _count_conv(tracer, args, result):
    conv = args[0]
    n, c_out, h, w = result.shape
    flop = 2.0 * n * h * w * c_out * conv.in_channels * conv.kernel ** 2
    tracer.count("nn.Conv2D.forward.gflop", flop / 1e9)


def _count_load(tracer, args, result):
    tracer.count("attack.DLAttack.load.calls", 1)
    tracer.note_distinct("attack.weight_files", str(args[1]))


def _count_flow(tracer, args, result):
    tracer.count("attacks.network_flow.edges", args[0].number_of_edges())


_AFTER = {
    "candidates.build_candidates": _count_candidates,
    "image_features.image": _count_image,
    "dataset.make_batch": _count_batch,
    "model.embed_images": _count_embed,
    "nn.Conv2D.forward": _count_conv,
    "attack.DLAttack.load": _count_load,
    "attacks.network_flow.min_cost_flow": _count_flow,
}
_AROUND = {"dataset.SplitDataset": _count_dataset}


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def note_distinct(self, name: str, value) -> None:
        with self._lock:
            self.distinct[name].add(value)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)
        around = _AROUND.get(name)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            before = (
                self.counters["candidates.build_candidates.calls"]
                if around else None
            )
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end,
                     threading.get_ident())
                )
            if after is not None:
                after(self, args, result)
            if around is not None:
                around(self, args, before, result)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; a missing one is recorded by name."""
        for name, module_name, attr_path in ENTRY_POINTS:
            where = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(where)
                continue
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = (
                owner.__dict__.get(attr) if owner is not None else None
            )
            if not callable(original):
                self.missing.append(where)
                continue
            wrapper = self.wrap(name, original)
            self._patch(owner, attr, wrapper)
            if not owner_path:
                # Module function: also rebind every ``from x import f``.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(
                        module, "__name__", ""
                    ).startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        for where in self.missing:
            print(f"perfbench: missing entry point {where}", file=sys.stderr)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def self_times(self, wall_start: float, wall_end: float):
        """``({span name: self seconds}, uncovered seconds)`` within the
        wall window, by the latest-started-open-span sweep."""
        events = []
        for span_id, _parent, name, start, end, _tid in self.spans:
            start, end = max(start, wall_start), min(end, wall_end)
            if end > start:
                events.append((start, 1, span_id, name))
                events.append((end, 0, span_id, name))
        events.sort()
        self_s: dict[str, float] = defaultdict(float)
        open_heap: list[tuple[float, int, str]] = []
        closed: set[int] = set()
        covered = 0.0
        last = wall_start
        for when, kind, span_id, name in events:
            while open_heap and -open_heap[0][1] in closed:
                heapq.heappop(open_heap)
            if open_heap and when > last:
                top = open_heap[0]
                self_s[top[2]] += when - last
                covered += when - last
            last = when
            if kind == 1:
                heapq.heappush(open_heap, (-when, -span_id, name))
            else:
                closed.add(span_id)
        return dict(self_s), (wall_end - wall_start) - covered

    def durations(self, name: str) -> list[float]:
        return [end - start for _i, _p, n, start, end, _t in self.spans
                if n == name]

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, run id."""
        with gzip.open(path, "wt") as out:
            for span_id, parent, name, start, end, tid in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, "thread": tid,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, self_s: dict, other_s: float) -> dict:
    """The per-layer metric values of one traced pass (name -> value)."""
    c = tracer.counters
    loads = c["attack.DLAttack.load.calls"]
    evaluate = tracer.durations("experiments.evaluate_scenario")
    metrics = {
        f"{name}.s": self_s.get(name, 0.0)
        for name in dict.fromkeys(n for n, _m, _a in ENTRY_POINTS)
        if name not in ("dataset.SplitDataset",
                        "experiments.evaluate_scenario")
    }
    metrics.update({
        "dataset.SplitDataset.self_s": self_s.get("dataset.SplitDataset", 0.0),
        "experiments.evaluate_scenario.s": (
            statistics.median(evaluate) if evaluate else 0.0
        ),
        "candidates.sinks": c["candidates.sinks"],
        "candidates.vpps": c["candidates.vpps"],
        "image_features.images": c["image_features.images"],
        "dataset.cache_hit_ratio": _ratio(
            c["dataset.cache_hits"],
            c["dataset.cache_hits"] + c["dataset.cache_misses"],
        ),
        "dataset.batch_unique_image_ratio": _ratio(
            c["dataset.batch_unique_images"], c["dataset.batch_image_refs"]
        ),
        "model.embed_images.images": c["model.embed_images.images"],
        "nn.Conv2D.forward.gflop": c["nn.Conv2D.forward.gflop"],
        "attack.DLAttack.load.calls": loads,
        "attack.weight_load_reuse_ratio": _ratio(
            len(tracer.distinct["attack.weight_files"]), loads
        ),
        "attacks.network_flow.edges": c["attacks.network_flow.edges"],
        "other.self_s": other_s,
    })
    return metrics

"""Random-forest candidate-list attack in the style of Zhang et al. [9].

The paper's introduction contrasts itself with "Analysis of security of
split manufacturing using machine learning" (Zhang, Magana, Davoodi,
DAC 2018): a random-forest two-class classifier over VPP features that
"does not predict the BEOL connections directly, but generates a list
of candidates with considerable size instead" — hundreds or thousands
per broken connection at higher split layers.

This module reproduces that attack style so the comparison can be made
quantitatively:

* a from-scratch CART decision tree + bagged random forest (NumPy only)
  over the same 27 vector features the DL attack uses;
* per sink fragment, every source whose predicted connection
  probability clears a threshold joins the candidate list;
* :meth:`RandomForestAttack.select` also yields a single best guess
  (argmax probability) so CCR can be compared head-to-head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.vector_features import vpp_vector_features
from ..split.fragments import Fragment
from ..split.pins import PinTable
from ..split.split import VPP, SplitLayout
from .base import Attack

# ---------------------------------------------------------------------------
# From-scratch CART + random forest
# ---------------------------------------------------------------------------


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    probability: float = 0.0  # P(class 1) at a leaf

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """Binary CART with gini impurity and per-split feature subsampling."""

    def __init__(
        self,
        max_depth: int = 10,
        min_samples_leaf: int = 4,
        max_features: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self.root: _Node | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (N, F); y must be (N,)")
        if x.shape[0] == 0:
            raise ValueError("empty training set")
        self.root = self._grow(x, y, depth=0)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("tree not fitted")
        x = np.asarray(x, dtype=np.float64)
        return np.array([self._walk(row) for row in x])

    # -- internals -------------------------------------------------------
    def _walk(self, row: np.ndarray) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.probability

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        probability = float(y.mean()) if y.size else 0.0
        if (
            depth >= self.max_depth
            or y.size < 2 * self.min_samples_leaf
            or probability in (0.0, 1.0)
        ):
            return _Node(probability=probability)
        split = self._best_split(x, y)
        if split is None:
            return _Node(probability=probability)
        feature, threshold = split
        mask = x[:, feature] <= threshold
        left = self._grow(x[mask], y[mask], depth + 1)
        right = self._grow(x[~mask], y[~mask], depth + 1)
        return _Node(feature, threshold, left, right, probability)

    def _best_split(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[int, float] | None:
        n, n_features = x.shape
        k = self.max_features or max(1, int(np.sqrt(n_features)))
        features = self.rng.choice(n_features, size=min(k, n_features),
                                   replace=False)
        best: tuple[float, int, float] | None = None
        total_pos = y.sum()
        for feature in features:
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            pos_left = np.cumsum(ys)
            n_left = np.arange(1, n + 1)
            # candidate split points: between distinct consecutive values
            distinct = xs[1:] != xs[:-1]
            valid = (
                distinct
                & (n_left[:-1] >= self.min_samples_leaf)
                & ((n - n_left[:-1]) >= self.min_samples_leaf)
            )
            if not valid.any():
                continue
            idx = np.nonzero(valid)[0]
            nl = n_left[idx].astype(np.float64)
            nr = n - nl
            pl = pos_left[idx] / nl
            pr = (total_pos - pos_left[idx]) / nr
            gini = (nl * 2 * pl * (1 - pl) + nr * 2 * pr * (1 - pr)) / n
            j = int(idx[int(np.argmin(gini))])
            score = float(gini.min())
            if best is None or score < best[0]:
                threshold = (xs[j] + xs[j + 1]) / 2.0
                best = (score, int(feature), float(threshold))
        if best is None:
            return None
        return best[1], best[2]


class RandomForest:
    """Bagged ensemble of :class:`DecisionTree`."""

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int = 10,
        min_samples_leaf: int = 4,
        seed: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("need at least one tree")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees: list[DecisionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        self.trees = []
        n = x.shape[0]
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                rng=np.random.default_rng(rng.integers(2**31)),
            )
            tree.fit(x[idx], y[idx])
            self.trees.append(tree)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise RuntimeError("forest not fitted")
        votes = np.stack([t.predict_proba(x) for t in self.trees])
        return votes.mean(axis=0)


# ---------------------------------------------------------------------------
# The attack
# ---------------------------------------------------------------------------


@dataclass
class CandidateListResult:
    """[9]-style output: a ranked candidate list per sink fragment."""

    lists: dict[int, list[int]] = field(default_factory=dict)

    def mean_size(self) -> float:
        if not self.lists:
            return 0.0
        return sum(len(v) for v in self.lists.values()) / len(self.lists)


class RandomForestAttack(Attack):
    """Two-class random forest over VPP vector features.

    Train with :meth:`train` on labelled split layouts, then either
    :meth:`candidate_lists` (the [9] output style) or :meth:`select`
    (argmax single guess, for CCR comparison).
    """

    name = "random-forest"

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int = 10,
        negatives_per_positive: int = 20,
        max_sources_scored: int = 64,
        seed: int = 0,
    ):
        self.forest = RandomForest(n_trees=n_trees, max_depth=max_depth, seed=seed)
        self.negatives_per_positive = negatives_per_positive
        self.max_sources_scored = max_sources_scored
        self.seed = seed
        self._fitted = False

    # -- training ------------------------------------------------------
    def train(self, splits: list[SplitLayout]) -> "RandomForestAttack":
        rows: list[np.ndarray] = []
        labels: list[int] = []
        rng = np.random.default_rng(self.seed)
        for split in splits:
            pins = PinTable(split.source_fragments)
            for sink in split.sink_fragments:
                truth = split.truth.get(sink.fragment_id)
                ranked = self._nearest_sources(sink, pins)
                for vpp, src_id in ranked[: self.negatives_per_positive]:
                    if src_id == truth:
                        continue
                    rows.append(vpp_vector_features(split, vpp))
                    labels.append(0)
                positive = next(
                    (vpp for vpp, sid in ranked if sid == truth), None
                )
                if positive is not None:
                    rows.append(vpp_vector_features(split, positive))
                    labels.append(1)
        if not rows:
            raise ValueError("no training pairs found")
        x = np.stack(rows)
        y = np.array(labels)
        del rng  # bootstrap randomness lives in the forest
        self.forest.fit(x, y)
        self._fitted = True
        return self

    # -- inference -----------------------------------------------------
    def candidate_lists(
        self, split: SplitLayout, threshold: float
    ) -> CandidateListResult:
        """All sources whose predicted probability clears ``threshold``,
        ranked by probability — the [9] output the paper criticises."""
        result = CandidateListResult()
        pins = PinTable(split.source_fragments)
        for sink in split.sink_fragments:
            scored = self._score_sources(split, sink, pins)
            keep = [
                src_id
                for prob, src_id in scored
                if prob >= threshold
            ]
            if not keep and scored:
                keep = [scored[0][1]]  # never return an empty list
            result.lists[sink.fragment_id] = keep
        return result

    def select(self, split: SplitLayout) -> dict[int, int]:
        assignment: dict[int, int] = {}
        pins = PinTable(split.source_fragments)
        for sink in split.sink_fragments:
            scored = self._score_sources(split, sink, pins)
            if scored:
                assignment[sink.fragment_id] = scored[0][1]
        return assignment

    # -- helpers --------------------------------------------------------
    def _score_sources(
        self, split: SplitLayout, sink: Fragment, pins: PinTable
    ) -> list[tuple[float, int]]:
        if not self._fitted:
            raise RuntimeError("attack is not trained")
        ranked = self._nearest_sources(sink, pins)[: self.max_sources_scored]
        if not ranked:
            return []
        x = np.stack(
            [vpp_vector_features(split, vpp) for vpp, _src in ranked]
        )
        probs = self.forest.predict_proba(x)
        scored = [
            (float(p), src_id) for p, (_vpp, src_id) in zip(probs, ranked)
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        return scored

    @staticmethod
    def _nearest_sources(
        sink: Fragment, pins: PinTable
    ) -> list[tuple[VPP, int]]:
        """All (closest-VPP, source) pairs ranked by (distance, source
        id); the VPP is the first closest pin pair."""
        dist, sink_pin, pin = pins.nearest(sink)
        order = np.lexsort((pins.fragment_ids, dist))
        return [
            (VPP(sink.virtual_pins[i], pins.pins[j]), src_id)
            for i, j, src_id in zip(
                sink_pin[order].tolist(),
                pin[order].tolist(),
                pins.fragment_ids[order].tolist(),
            )
        ]

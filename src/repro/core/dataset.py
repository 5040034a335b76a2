"""Grouped VPP datasets for training and inference.

The unit of work is a *candidate group*: one sink fragment with its
(up to) n candidate VPPs, padded to exactly n with a validity mask.
Groups carry raw vector features; normalisation happens at batch
assembly so one normaliser (fitted on the training corpus) serves all
designs.

Candidates are held only as the int64 arrays of :class:`FeatureTensors`
(each slot's two virtual pins as (fragment id, x, y)), on the cold and
the warm path alike, so a warm load builds no per-candidate Python
objects; :attr:`SampleGroup.vpps` builds a group's VPP list on request.

Feature tensors are **precomputed once** at :class:`SplitDataset`
build: the raw vector features are stacked into one ``(G, n, F)``
array, and every distinct virtual-pin image is rendered exactly once
into a unique-image table with ``(G, n)`` / ``(G,)`` index arrays
pointing into it (row 0 is the all-zero padding image).  Images
reach the network only in that form: training batches
(:func:`make_batch`) carry the batch's own unique-image sub-table with
gather indices into it, and inference embeds the whole table once and
gathers embeddings.  Batch assembly is a pure index-and-slice
operation — epochs never re-render features.

The tensors are cached in the artifact store
(:mod:`repro.core.artifacts`, kind ``features``), keyed by a hash of the
serialised layout, the split layer and the feature fields of the
configuration.  Each file holds the ``vec`` tensor, the unique-image
table with its ``src_index`` / ``sink_index`` gather arrays, and the
four candidate arrays — so warm runs, and the
worker processes of the multi-process pipeline executor, skip
candidate selection *and* feature extraction entirely.  A file that
fails validation against the split layout is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..split.fragments import VirtualPin
from ..split.split import VPP, SplitLayout
from .artifacts import artifact_store, features_key
from .candidates import build_candidates
from .config import AttackConfig
from .image_features import ImageExtractor
from .vector_features import (
    N_VECTOR_FEATURES,
    FeatureNormalizer,
    group_vector_features,
)


class SampleGroup:
    """One sink fragment's candidate group: a view of row ``index`` of
    its dataset's :class:`FeatureTensors`."""

    __slots__ = ("tensors", "index")

    def __init__(self, tensors: FeatureTensors, index: int):
        self.tensors = tensors
        self.index = index

    @property
    def sink_fragment_id(self) -> int:
        return int(self.tensors.group_sink[self.index])

    @property
    def target(self) -> int | None:
        """Index of the positive VPP, None if it was not selected."""
        target = int(self.tensors.targets[self.index])
        return None if target < 0 else target

    @property
    def vec(self) -> np.ndarray:
        return self.tensors.vec[self.index]

    @property
    def mask(self) -> np.ndarray:
        return self.tensors.mask[self.index]

    @property
    def n_valid(self) -> int:
        return int(self.tensors.n_valid[self.index])

    @property
    def vpps(self) -> list[VPP]:
        """The candidate VPPs, built from the arrays on each call."""
        t, i, k = self.tensors, self.index, self.n_valid
        return [
            VPP(VirtualPin(*sink), VirtualPin(*source))
            for sink, source in zip(
                t.vpp_sink[i, :k].tolist(), t.vpp_source[i, :k].tolist()
            )
        ]


@dataclass
class FeatureTensors:
    """One layout's candidate groups and precomputed features, as arrays
    (see module docstring)."""

    group_sink: np.ndarray  # (G,) int64 sink fragment id
    n_valid: np.ndarray  # (G,) int64 candidates, 1..n
    vpp_sink: np.ndarray  # (G, n, 3) int64 (fragment id, x, y); pads 0
    vpp_source: np.ndarray  # (G, n, 3) int64 likewise
    vec: np.ndarray  # (G, n, F) float32, raw (un-normalised)
    mask: np.ndarray  # (G, n) bool
    targets: np.ndarray  # (G,) int64; -1 where the group is unlabeled
    image_table: np.ndarray | None  # (U, C, S, S) uint8; row 0 = padding
    src_index: np.ndarray | None  # (G, n) intp into image_table
    sink_index: np.ndarray | None  # (G,) intp into image_table


class SplitDataset:
    """Candidate groups plus precomputed feature tensors for one layout."""

    def __init__(
        self,
        split: SplitLayout,
        config: AttackConfig,
        use_disk_cache: bool = True,
    ):
        self.split = split
        self.config = config
        self._images: ImageExtractor | None = None
        self.tensors: FeatureTensors | None = None

        # Also gates the embedding cache of the attack scoring this set.
        self.use_disk_cache = use_disk_cache
        self.cache_key = features_key(split, config)
        store = artifact_store(use_disk_cache)
        if not store.read("features", self.cache_key, self._load_cache):
            self.tensors = self._compute_tensors()
            store.write("features", self.cache_key, self._cache_arrays())
        self.groups = [
            SampleGroup(self.tensors, i)
            for i in range(len(self.tensors.group_sink))
        ]
        # Sink fragments with zero candidates have no group.
        self.n_skipped_empty = len(split.sink_fragments) - len(self.groups)

    @property
    def images(self) -> ImageExtractor | None:
        """The per-layout image renderer (None when images are disabled).

        Built lazily: warm cache hits never render, so they skip the
        extractor's dense occupancy pass entirely.
        """
        if not self.config.use_images:
            return None
        if self._images is None:
            self._images = ImageExtractor(self.split, self.config)
        return self._images

    @property
    def candidates(self) -> dict[int, list[VPP]]:
        """Every sink fragment's candidate VPPs (empty where skipped),
        built from the arrays on each call."""
        candidates = {f.fragment_id: [] for f in self.split.sink_fragments}
        candidates.update((g.sink_fragment_id, g.vpps) for g in self.groups)
        return candidates

    # -- tensor precompute / cache --------------------------------------
    def _cache_arrays(self) -> dict[str, np.ndarray]:
        """Everything expensive, as arrays: features, unique images and
        the candidate arrays themselves (so warm loads skip candidate
        selection entirely).  Masks and targets are rederived."""
        names = ["vec", "group_sink", "n_valid", "vpp_sink", "vpp_source"]
        if self.tensors.image_table is not None:
            names += ["image_table", "src_index", "sink_index"]
        return {name: getattr(self.tensors, name) for name in names}

    def _load_cache(self, path: Path) -> bool:
        """Load the tensors from a cache file.

        Validates shapes and fragment ids against the split layout, as
        array operations: no per-candidate Python objects are built.  A
        missing array raises ``KeyError`` and any other mismatch
        ``ValueError``, leaving the dataset untouched for the store to
        report and rebuild.
        """
        n = self.config.n_candidates
        with np.load(path) as data:
            vec = data["vec"].astype(np.float32, copy=False)
            group_sink = data["group_sink"]
            n_valid = data["n_valid"]
            vpp_sink = data["vpp_sink"]
            vpp_source = data["vpp_source"]
            image_table = src_index = sink_index = None
            if self.config.use_images:
                image_table = data["image_table"]
                src_index = data["src_index"].astype(np.intp)
                sink_index = data["sink_index"].astype(np.intp)

        g = group_sink.size
        sink_ids = np.array([f.fragment_id for f in self.split.sink_fragments])
        if (
            group_sink.shape != (g,)
            or vec.shape != (g, n, N_VECTOR_FEATURES)
            or n_valid.shape != (g,)
            or vpp_sink.shape != (g, n, 3)
            or vpp_source.shape != (g, n, 3)
            or g > sink_ids.size
            or not np.isin(group_sink, sink_ids).all()
        ):
            raise ValueError("feature tensors do not match the layout")
        if self.config.use_images:
            expected = (
                # Derive channels from config alone: touching self.images
                # here would build the extractor the warm path avoids.
                self.config.image_channels(self.split.split_layer),
                self.config.image_size,
                self.config.image_size,
            )
            if (
                image_table.ndim != 4
                or image_table.shape[1:] != expected
                or src_index.shape != (g, n)
                or sink_index.shape != (g,)
                or src_index.max(initial=0) >= image_table.shape[0]
                or sink_index.max(initial=0) >= image_table.shape[0]
            ):
                raise ValueError("image table does not match the config")

        bad = np.flatnonzero((n_valid < 1) | (n_valid > n))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"group {i} has {int(n_valid[i])} candidates")
        # Padded slots are not checked: only valid slots name fragments.
        mask = np.arange(n) < n_valid[:, None]
        named = np.concatenate([vpp_sink[mask, 0], vpp_source[mask, 0]])
        known = [f.fragment_id for f in self.split.fragments]
        if not np.isin(named, known).all():
            raise ValueError("a group names an unknown fragment")

        self.tensors = FeatureTensors(
            group_sink=group_sink,
            n_valid=n_valid,
            vpp_sink=vpp_sink,
            vpp_source=vpp_source,
            vec=vec,
            mask=mask,
            targets=self._targets(group_sink, mask, vpp_source),
            image_table=image_table,
            src_index=src_index,
            sink_index=sink_index,
        )
        return True

    def _targets(
        self, group_sink: np.ndarray, mask: np.ndarray, vpp_source: np.ndarray
    ) -> np.ndarray:
        """Per group, the first valid slot whose source is the sink's
        true driver, or -1 where no slot is."""
        # -1 for a sink without a truth entry: fragment ids are >= 0.
        truth = np.array(
            [self.split.truth.get(s, -1) for s in group_sink.tolist()],
            dtype=np.int64,
        )
        hits = mask & (vpp_source[:, :, 0] == truth[:, None])
        return np.where(hits.any(axis=1), hits.argmax(axis=1), -1)

    def _compute_tensors(self) -> FeatureTensors:
        """Candidate selection and feature extraction (a cache miss)."""
        n = self.config.n_candidates
        candidates = build_candidates(self.split, n)
        lists = [
            (sink.fragment_id, candidates[sink.fragment_id])
            for sink in self.split.sink_fragments
            if candidates[sink.fragment_id]
        ]
        g = len(lists)
        group_sink = np.array([s for s, _ in lists], dtype=np.int64)
        n_valid = np.array([len(vpps) for _, vpps in lists], dtype=np.int64)
        mask = np.arange(n) < n_valid[:, None]
        pins = np.zeros((g, n, 6), dtype=np.int64)
        pins[mask] = np.array(
            [
                (p.fragment_id, p.x, p.y, q.fragment_id, q.x, q.y)
                for _, vpps in lists
                for p, q in ((v.sink_vp, v.source_vp) for v in vpps)
            ],
            dtype=np.int64,
        ).reshape(-1, 6)
        vpp_sink, vpp_source = pins[:, :, :3].copy(), pins[:, :, 3:].copy()

        vec = np.zeros((g, n, N_VECTOR_FEATURES), dtype=np.float32)
        for i, (_, vpps) in enumerate(lists):
            features, _mask = group_vector_features(
                self.split, vpps, n, self.config.max_feature_layers
            )
            vec[i] = features

        image_table = src_index = sink_index = None
        if self.config.use_images:
            c = self.images.n_channels
            s = self.config.image_size
            # Row 0 is the all-zero image used for padded candidate slots.
            rows: list[np.ndarray] = [np.zeros((c, s, s), dtype=np.uint8)]
            row_of: dict[tuple[int, int, int], int] = {}

            def table_row(fragment, vp) -> int:
                key = (fragment.fragment_id, vp.x, vp.y)
                row = row_of.get(key)
                if row is None:
                    row = len(rows)
                    rows.append(self.images.image(fragment, vp))
                    row_of[key] = row
                return row

            src_index = np.zeros((g, n), dtype=np.intp)
            sink_index = np.zeros(g, dtype=np.intp)
            for i, (sink_id, vpps) in enumerate(lists):
                for j, vpp in enumerate(vpps):
                    frag = self.split.fragment(vpp.source_fragment)
                    src_index[i, j] = table_row(frag, vpp.source_vp)
                sink_frag = self.split.fragment(sink_id)
                # The sink fragment is rendered once per group (paper
                # Sec. 4.2); use its first (deterministically ordered)
                # virtual pin.
                sink_index[i] = table_row(sink_frag, sink_frag.virtual_pins[0])
            image_table = np.stack(rows)

        return FeatureTensors(
            group_sink=group_sink,
            n_valid=n_valid,
            vpp_sink=vpp_sink,
            vpp_source=vpp_source,
            vec=vec,
            mask=mask,
            targets=self._targets(group_sink, mask, vpp_source),
            image_table=image_table,
            src_index=src_index,
            sink_index=sink_index,
        )

    # -- views -------------------------------------------------------------
    def trainable_groups(self) -> list[SampleGroup]:
        """Groups whose positive VPP survived candidate selection (the
        ``perfbench`` train-epoch workload counts its items with this)."""
        return [g for g in self.groups if g.target is not None]

    def candidate_recall(self) -> float:
        """Fraction of sink fragments whose true source survived
        candidate selection (the attack's CCR ceiling, unweighted), from
        the group targets: a warm cache hit reruns no selection."""
        n_sinks = len(self.split.sink_fragments)
        if not n_sinks:
            return 1.0
        return int((self.tensors.targets >= 0).sum()) / n_sinks

    def all_vector_rows(self) -> np.ndarray:
        """Valid feature rows, for normaliser fitting."""
        if not self.groups:
            return np.zeros((0, N_VECTOR_FEATURES))
        return self.tensors.vec[self.tensors.mask]


@dataclass
class Batch:
    """A training batch of B labelled groups.

    With images enabled, ``image_batch`` holds each distinct image of
    the batch once and ``src_gather``/``sink_gather`` index its rows:
    ``image_batch[src_gather]`` is every candidate slot's source image,
    ``image_batch[sink_gather]`` every group's sink image.  All three
    are None for a vector-only config.
    """

    vec: np.ndarray  # (B, n, F) normalised
    mask: np.ndarray  # (B, n)
    targets: np.ndarray  # (B,)
    image_batch: np.ndarray | None = None  # (U, C, S, S) float32, unique
    src_gather: np.ndarray | None = None  # (B, n) intp into image_batch
    sink_gather: np.ndarray | None = None  # (B,) intp into image_batch


def make_batch(
    dataset: SplitDataset,
    indices,
    normalizer: FeatureNormalizer,
) -> Batch:
    """Assemble a training batch from the labelled groups ``indices``
    of ``dataset``.

    Candidate groups share source images heavily (a popular source
    fragment is a candidate of many sinks), so the batch carries a
    unique-image sub-table, typically ~8-10x smaller than one image
    per candidate slot, plus gather indices into it.
    """
    tensors = dataset.tensors
    idx = np.asarray(indices, dtype=np.intp)
    vec = normalizer.transform(tensors.vec[idx])
    mask = tensors.mask[idx]
    targets = tensors.targets[idx]
    if (targets < 0).any():
        raise ValueError("cannot build a training batch from unlabeled groups")
    if not dataset.config.use_images:
        return Batch(vec, mask, targets)
    b, n = tensors.src_index[idx].shape
    flat = np.concatenate(
        [tensors.src_index[idx].ravel(), tensors.sink_index[idx]]
    )
    uniq, inverse = np.unique(flat, return_inverse=True)
    return Batch(
        vec, mask, targets,
        image_batch=tensors.image_table[uniq].astype(np.float32),
        src_gather=inverse[: b * n].reshape(b, n).astype(np.intp),
        sink_gather=inverse[b * n :].astype(np.intp),
    )

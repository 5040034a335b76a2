"""Grouped VPP datasets for training and inference.

The unit of work is a *candidate group*: one sink fragment with its
(up to) n candidate VPPs, padded to exactly n with a validity mask.
Groups carry raw vector features; normalisation happens at batch
assembly so one normaliser (fitted on the training corpus) serves all
designs.

Feature tensors are **precomputed once** at :class:`SplitDataset`
build: the raw vector features are stacked into one ``(G, n, F)``
array, and every distinct virtual-pin image is rendered exactly once
into a unique-image table with ``(G, n)`` / ``(G,)`` index arrays
pointing into it (row 0 is the all-zero padding image).  Batch
assembly (:func:`make_batch`) is then a pure index-and-slice
operation — epochs never re-render or re-stack features.

The tensors are cached in the artifact store
(:mod:`repro.core.artifacts`, kind ``features``), keyed by a hash of the
serialised layout, the split layer and the feature fields of the
configuration.  Each file holds the ``vec`` tensor, the unique-image
table with its ``src_index`` / ``sink_index`` gather arrays, and the
candidate VPP lists as integer coordinate arrays (``group_sink``,
``n_valid``, ``vpp_sink``, ``vpp_source``) — so warm runs, and the
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


@dataclass
class SampleGroup:
    """One sink fragment's candidate group."""

    index: int  # position in SplitDataset.groups / the feature tensors
    sink_fragment_id: int
    vpps: list[VPP]
    target: int | None  # index of the positive VPP, None if not included
    vec: np.ndarray  # (n, N_VECTOR_FEATURES) raw features, zero-padded
    mask: np.ndarray  # (n,) validity

    @property
    def n_valid(self) -> int:
        return int(self.mask.sum())


@dataclass
class FeatureTensors:
    """Precomputed per-dataset feature tensors (see module docstring)."""

    vec: np.ndarray  # (G, n, F) float32, raw (un-normalised)
    mask: np.ndarray  # (G, n) bool
    targets: np.ndarray  # (G,) int64; -1 where the group is unlabeled
    image_table: np.ndarray | None  # (U, C, S, S) uint8; row 0 = padding
    src_index: np.ndarray | None  # (G, n) intp into image_table
    sink_index: np.ndarray | None  # (G,) intp into image_table

    def nbytes(self) -> int:
        total = self.vec.nbytes + self.mask.nbytes + self.targets.nbytes
        for arr in (self.image_table, self.src_index, self.sink_index):
            if arr is not None:
                total += arr.nbytes
        return total


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
        self.groups: list[SampleGroup] = []
        self.n_skipped_empty = 0  # sink fragments with zero candidates
        self.candidates: dict[int, list[VPP]] = {}
        self.tensors: FeatureTensors | None = None

        # Also gates the embedding cache of the attack scoring this set.
        self.use_disk_cache = use_disk_cache
        self.cache_key = features_key(split, config)
        store = artifact_store(use_disk_cache)
        if not store.read("features", self.cache_key, self._load_cache):
            self.candidates = build_candidates(split, config.n_candidates)
            self._build_group_shells()
            self.tensors = self._compute_tensors()
            store.write("features", self.cache_key, self._cache_arrays())
        # Per-group vec/mask are views into the stacked tensors.
        for group in self.groups:
            group.vec = self.tensors.vec[group.index]
            group.mask = self.tensors.mask[group.index]

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

    def _build_group_shells(self) -> None:
        """Groups with candidates, targets and masks but no features yet."""
        n = self.config.n_candidates
        for sink in self.split.sink_fragments:
            vpps = self.candidates[sink.fragment_id]
            if not vpps:
                self.n_skipped_empty += 1
                continue
            truth = self.split.truth.get(sink.fragment_id)
            target = None
            for i, vpp in enumerate(vpps):
                if vpp.source_fragment == truth:
                    target = i
                    break
            mask = np.zeros(n, dtype=bool)
            mask[: len(vpps[:n])] = True
            self.groups.append(
                SampleGroup(
                    index=len(self.groups),
                    sink_fragment_id=sink.fragment_id,
                    vpps=vpps,
                    target=target,
                    vec=np.zeros((n, N_VECTOR_FEATURES), dtype=np.float32),
                    mask=mask,
                )
            )

    # -- tensor precompute / cache --------------------------------------
    def _cache_arrays(self) -> dict[str, np.ndarray]:
        """Everything expensive, as arrays: features, unique images and
        the candidate lists themselves (so warm loads skip candidate
        selection entirely).  Masks and targets are rederived."""
        n = self.config.n_candidates
        g = len(self.groups)
        group_sink = np.array(
            [grp.sink_fragment_id for grp in self.groups], dtype=np.int64
        )
        n_valid = np.array(
            [len(grp.vpps) for grp in self.groups], dtype=np.int64
        )
        vpp_sink = np.zeros((g, n, 3), dtype=np.int64)
        vpp_source = np.zeros((g, n, 3), dtype=np.int64)
        for grp in self.groups:
            for j, vpp in enumerate(grp.vpps[:n]):
                vpp_sink[grp.index, j] = (
                    vpp.sink_vp.fragment_id, vpp.sink_vp.x, vpp.sink_vp.y,
                )
                vpp_source[grp.index, j] = (
                    vpp.source_vp.fragment_id, vpp.source_vp.x, vpp.source_vp.y,
                )
        arrays = {
            "vec": self.tensors.vec,
            "group_sink": group_sink,
            "n_valid": n_valid,
            "vpp_sink": vpp_sink,
            "vpp_source": vpp_source,
        }
        if self.tensors.image_table is not None:
            arrays["image_table"] = self.tensors.image_table
            arrays["src_index"] = self.tensors.src_index
            arrays["sink_index"] = self.tensors.sink_index
        return arrays

    def _load_cache(self, path: Path) -> bool:
        """Rebuild groups, candidates and tensors from a cache file.

        Validates shapes and fragment ids against the split layout.  A
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

        g = group_sink.shape[0]
        sink_ids = {f.fragment_id for f in self.split.sink_fragments}
        if (
            vec.shape != (g, n, N_VECTOR_FEATURES)
            or n_valid.shape != (g,)
            or vpp_sink.shape != (g, n, 3)
            or vpp_source.shape != (g, n, 3)
            or g > len(sink_ids)
            or not set(group_sink.tolist()) <= sink_ids
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

        fragment_ids = {f.fragment_id for f in self.split.fragments}
        groups: list[SampleGroup] = []
        for i in range(g):
            k = int(n_valid[i])
            if not 1 <= k <= n:
                raise ValueError(f"group {i} has {k} candidates")
            vpps = []
            for j in range(k):
                sf, sx, sy = (int(v) for v in vpp_sink[i, j])
                qf, qx, qy = (int(v) for v in vpp_source[i, j])
                if sf not in fragment_ids or qf not in fragment_ids:
                    raise ValueError(f"group {i} names an unknown fragment")
                vpps.append(
                    VPP(VirtualPin(sf, sx, sy), VirtualPin(qf, qx, qy))
                )
            sink_fid = int(group_sink[i])
            truth = self.split.truth.get(sink_fid)
            target = None
            for j, vpp in enumerate(vpps):
                if vpp.source_fragment == truth:
                    target = j
                    break
            mask = np.zeros(n, dtype=bool)
            mask[:k] = True
            groups.append(
                SampleGroup(
                    index=i,
                    sink_fragment_id=sink_fid,
                    vpps=vpps,
                    target=target,
                    vec=vec[i],
                    mask=mask,
                )
            )

        self.groups = groups
        self.n_skipped_empty = len(sink_ids) - g
        self.candidates = {fid: [] for fid in sink_ids}
        self.candidates.update(
            {grp.sink_fragment_id: grp.vpps for grp in groups}
        )
        self.tensors = FeatureTensors(
            vec=vec,
            mask=self._mask_tensor(),
            targets=self._target_tensor(),
            image_table=image_table,
            src_index=src_index,
            sink_index=sink_index,
        )
        return True

    def _mask_tensor(self) -> np.ndarray:
        if not self.groups:
            return np.zeros((0, self.config.n_candidates), dtype=bool)
        return np.stack([g.mask for g in self.groups])

    def _target_tensor(self) -> np.ndarray:
        return np.array(
            [-1 if g.target is None else g.target for g in self.groups],
            dtype=np.int64,
        )

    def _compute_tensors(self) -> FeatureTensors:
        n = self.config.n_candidates
        g = len(self.groups)
        vec = np.zeros((g, n, N_VECTOR_FEATURES), dtype=np.float32)
        for group in self.groups:
            features, _mask = group_vector_features(
                self.split, group.vpps, n, self.config.max_feature_layers
            )
            vec[group.index] = features

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
            for group in self.groups:
                for i, vpp in enumerate(group.vpps[:n]):
                    frag = self.split.fragment(vpp.source_fragment)
                    src_index[group.index, i] = table_row(frag, vpp.source_vp)
                sink_frag = self.split.fragment(group.sink_fragment_id)
                # The sink fragment is rendered once per group (paper
                # Sec. 4.2); use its first (deterministically ordered)
                # virtual pin.
                sink_index[group.index] = table_row(
                    sink_frag, sink_frag.virtual_pins[0]
                )
            image_table = np.stack(rows)

        return FeatureTensors(
            vec=vec,
            mask=self._mask_tensor(),
            targets=self._target_tensor(),
            image_table=image_table,
            src_index=src_index,
            sink_index=sink_index,
        )

    # -- views -------------------------------------------------------------
    def trainable_groups(self) -> list[SampleGroup]:
        """Groups whose positive VPP survived candidate selection."""
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

    # -- batch assembly -----------------------------------------------------
    def group_images(
        self, group: SampleGroup
    ) -> tuple[np.ndarray, np.ndarray]:
        """(source images (n, C, S, S), sink image (C, S, S)) as float32."""
        if self.images is None:
            raise RuntimeError("image features disabled in config")
        t = self.tensors
        src = t.image_table[t.src_index[group.index]].astype(np.float32)
        sink = t.image_table[t.sink_index[group.index]].astype(np.float32)
        return src, sink


@dataclass
class Batch:
    """A training/inference batch of B groups.

    Images come in one of two shapes: the *materialised* form
    (``src_images``/``sink_images``, every slot its own copy) or the
    *deduplicated* form (``image_batch`` holding each distinct image of
    the batch once, ``src_gather``/``sink_gather`` indexing its rows) —
    exactly one of the two is populated when images are enabled.
    """

    vec: np.ndarray  # (B, n, F) normalised
    mask: np.ndarray  # (B, n)
    targets: np.ndarray | None  # (B,) or None at inference
    src_images: np.ndarray | None  # (B, n, C, S, S)
    sink_images: np.ndarray | None  # (B, C, S, S)
    groups: list[SampleGroup]
    image_batch: np.ndarray | None = None  # (U, C, S, S) float32, unique
    src_gather: np.ndarray | None = None  # (B, n) intp into image_batch
    sink_gather: np.ndarray | None = None  # (B,) intp into image_batch


def make_batch(
    dataset: SplitDataset,
    groups: list[SampleGroup],
    normalizer: FeatureNormalizer,
    with_targets: bool,
    dedup_images: bool = False,
) -> Batch:
    """Assemble a batch from ``groups``.

    With ``dedup_images`` (and images enabled), the duplicate-heavy
    ``(B, n, C, S, S)`` stacks are replaced by a unique-image sub-table
    plus gather indices: candidate groups share source images heavily
    (a popular source fragment is a candidate of many sinks), so the
    sub-table is typically ~8-10x smaller than the materialised stacks.
    ``image_batch[src_gather]`` / ``image_batch[sink_gather]``
    reconstructs the materialised form bit-for-bit.
    """
    tensors = dataset.tensors
    idx = np.array([g.index for g in groups], dtype=np.intp)
    vec = normalizer.transform(tensors.vec[idx])
    mask = tensors.mask[idx]
    targets = None
    if with_targets:
        targets = tensors.targets[idx]
        if (targets < 0).any():
            raise ValueError("cannot build a training batch from unlabeled groups")
    src_images = sink_images = None
    image_batch = src_gather = sink_gather = None
    if dataset.config.use_images:
        if dedup_images:
            b, n = tensors.src_index[idx].shape
            flat = np.concatenate(
                [tensors.src_index[idx].ravel(), tensors.sink_index[idx]]
            )
            uniq, inverse = np.unique(flat, return_inverse=True)
            image_batch = tensors.image_table[uniq].astype(np.float32)
            src_gather = inverse[: b * n].reshape(b, n).astype(np.intp)
            sink_gather = inverse[b * n :].astype(np.intp)
        else:
            src_images = tensors.image_table[tensors.src_index[idx]].astype(
                np.float32
            )
            sink_images = tensors.image_table[tensors.sink_index[idx]].astype(
                np.float32
            )
    return Batch(
        vec, mask, targets, src_images, sink_images, groups,
        image_batch=image_batch,
        src_gather=src_gather,
        sink_gather=sink_gather,
    )

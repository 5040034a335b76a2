"""DLAttack: training and inference of the deep-learning attack.

One model is trained per split layer (the paper evaluates M1 and M3 as
separate experimental sets).  Training follows Sec. 5: Adam at learning
rate 1e-3, decayed to 60 % every 20 epochs, over the candidate groups
of the training designs; the loss is the softmax regression loss of
Eq. (6) (or the two-class baseline of Eq. (3) for the Figure 5
ablation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nn import (
    Adam,
    StepDecay,
    apply_weight_decay,
    clip_gradient_norm,
    softmax_regression_loss,
    two_class_loss,
    two_class_probabilities,
)
from ..split.metrics import AttackResult, ccr, collect_extra, report_extra
from ..split.split import SplitLayout
from .artifacts import artifact_store, embeddings_key, weights_digest
from .atomic import atomic_savez
from .config import AttackConfig
from .dataset import Batch, SplitDataset, make_batch
from .model import SplitNet
from .vector_features import FeatureNormalizer


@dataclass
class TrainLog:
    """Per-epoch training diagnostics."""

    epochs: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    val_ccr: list[float] = field(default_factory=list)
    train_seconds: float = 0.0


class DLAttack:
    """The paper's attack: candidate selection + features + SplitNet."""

    name = "dl-attack"

    def __init__(
        self,
        config: AttackConfig | None = None,
        split_layer: int = 1,
    ):
        self.config = config or AttackConfig.fast()
        self.split_layer = split_layer
        self.model = SplitNet(self.config, split_layer)
        self.normalizer = FeatureNormalizer()
        self.log = TrainLog()
        # weights_digest of the model, once share() has frozen it.
        self._shared_digest: str | None = None

    # -- training -------------------------------------------------------
    def train(
        self,
        train_splits: list[SplitLayout],
        val_splits: list[SplitLayout] | None = None,
        verbose: bool = False,
    ) -> TrainLog:
        started = time.perf_counter()
        self._shared_digest = None  # the weights are about to change
        for split in train_splits:
            if split.split_layer != self.split_layer:
                raise ValueError(
                    f"attack is for M{self.split_layer}, got a "
                    f"M{split.split_layer} training layout"
                )
        datasets = [
            SplitDataset(s, self.config) for s in train_splits
        ]
        rows = [d.all_vector_rows() for d in datasets if d.groups]
        if not rows or not any(r.shape[0] for r in rows):
            raise ValueError("no candidate groups in the training corpus")
        self.normalizer.fit(np.concatenate(rows, axis=0))

        work: list[tuple[SplitDataset, int]] = []
        subsample_rng = np.random.default_rng(self.config.seed)
        for dataset in datasets:
            indices = np.flatnonzero(dataset.tensors.targets >= 0).tolist()
            indices = _subsample_indices(
                indices, self.config.max_train_groups_per_design, subsample_rng
            )
            work.extend((dataset, i) for i in indices)
        if not work:
            raise ValueError("no trainable groups (positives all pruned)")

        optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        schedule = StepDecay(
            optimizer,
            factor=self.config.lr_decay,
            every=self.config.lr_decay_every,
        )
        rng = np.random.default_rng(self.config.seed)
        batch_size = self.config.batch_groups
        # Validation datasets are built once: candidate selection and
        # feature extraction are identical every epoch, so rebuilding
        # them per epoch (as `select` does for ad-hoc layouts) would
        # redo that work O(epochs) times.
        val_datasets = [
            SplitDataset(s, self.config) for s in (val_splits or [])
        ]

        self.model.train()
        for epoch in range(1, self.config.epochs + 1):
            order = rng.permutation(len(work))
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(order), batch_size):
                picked = [work[i] for i in order[start : start + batch_size]]
                # Groups from different designs can share a batch as long
                # as they come through the same normaliser; assemble per
                # dataset and concatenate.
                by_dataset: dict[int, tuple[SplitDataset, list[int]]] = {}
                for dataset, gi in picked:
                    by_dataset.setdefault(id(dataset), (dataset, []))[1].append(gi)
                batches = [
                    make_batch(
                        dataset,
                        [dataset.groups[i] for i in indices],
                        self.normalizer,
                        True,
                        # Conv tower once per unique image per batch.
                        dedup_images=self.config.use_images,
                    )
                    for dataset, indices in by_dataset.values()
                ]
                batch = _concat_batches(batches)
                loss = self._train_step(batch, optimizer)
                epoch_loss += loss
                n_batches += 1
            lr = schedule.step_epoch()
            mean_loss = epoch_loss / max(n_batches, 1)
            self.log.epochs.append(epoch)
            self.log.losses.append(mean_loss)
            self.log.learning_rates.append(lr)
            if val_datasets:
                val = float(
                    np.mean(
                        [
                            ccr(d.split, self._select_dataset(d))
                            for d in val_datasets
                        ]
                    )
                )
                self.log.val_ccr.append(val)
            if verbose:
                val_txt = (
                    f" val_ccr={self.log.val_ccr[-1]:.1f}%"
                    if val_splits
                    else ""
                )
                print(
                    f"epoch {epoch:3d}: loss={mean_loss:.4f} lr={lr:.2e}{val_txt}"
                )
        self.log.train_seconds = time.perf_counter() - started
        return self.log

    def _train_step(self, batch: Batch, optimizer: Adam) -> float:
        optimizer.zero_grad()
        dedup = batch.image_batch is not None
        if dedup:
            scores = self.model.forward_deduplicated(
                batch.vec, batch.image_batch,
                batch.src_gather, batch.sink_gather,
            )
        else:
            scores = self.model(batch.vec, batch.src_images, batch.sink_images)
        if self.config.loss == "softmax":
            loss, grad = softmax_regression_loss(
                scores, batch.targets, batch.mask
            )
        else:
            loss, grad = two_class_loss(scores, batch.targets, batch.mask)
        if dedup:
            self.model.backward_deduplicated(grad)
        else:
            self.model.backward(grad)
        if self.config.grad_clip is not None:
            clip_gradient_norm(optimizer.parameters, self.config.grad_clip)
        optimizer.step()
        if self.config.weight_decay > 0.0:
            apply_weight_decay(
                optimizer.parameters, self.config.weight_decay, optimizer.lr
            )
        return loss

    # -- inference ---------------------------------------------------------
    def attack(
        self, split: SplitLayout, use_disk_cache: bool = True
    ) -> AttackResult:
        """Predict BEOL connections; runtime includes feature extraction
        (the paper's reported inference time does too).

        ``use_disk_cache=False`` neither reads nor writes the feature and
        embedding caches, so a cache-free timing run really touches no
        disk.  It is a per-call argument, not attack state, because
        :func:`repro.pipeline.flow.trained_attack` shares one attack
        between every caller of the same weights.
        """
        with collect_extra() as extra:
            start = time.perf_counter()
            assignment = self.select(split, use_disk_cache)
            elapsed = time.perf_counter() - start
        return AttackResult(
            design=split.name,
            split_layer=split.split_layer,
            assignment=assignment,
            runtime_s=elapsed,
            attack_name=self.name,
            extra=extra,
        )

    def select(
        self, split: SplitLayout, use_disk_cache: bool = True
    ) -> dict[int, int]:
        if split.split_layer != self.split_layer:
            raise ValueError(
                f"attack is for M{self.split_layer}, layout is "
                f"M{split.split_layer}"
            )
        if not self.normalizer.fitted:
            raise RuntimeError("attack is not trained")
        dataset = SplitDataset(
            split, self.config, use_disk_cache=use_disk_cache
        )
        report_extra(candidate_recall=dataset.candidate_recall())
        return self._select_dataset(dataset)

    def _select_dataset(self, dataset: SplitDataset) -> dict[int, int]:
        """Inference over an already-built dataset.

        Runs under eval mode.  A model in training mode (per-epoch
        validation calls this mid-training) is switched back on exit:
        leaving it in eval mode would silently disable dropout for every
        epoch after the first.  A model already in eval mode, such as a
        shared attack from ``trained_attack``, is never toggled, so
        concurrent callers cannot see it switch under them.
        """
        was_training = self.model.training
        if was_training:
            self.model.eval()
        try:
            if self.config.use_images:
                return self._select_deduplicated(dataset)
            assignment: dict[int, int] = {}
            chunk = self._SCORE_CHUNK
            for start in range(0, len(dataset.groups), chunk):
                groups = dataset.groups[start : start + chunk]
                batch = make_batch(dataset, groups, self.normalizer, False)
                scores = self.model(
                    batch.vec, batch.src_images, batch.sink_images
                )
                idx = np.arange(start, start + len(groups))
                self._assign_choices(dataset, idx, scores, assignment)
            return assignment
        finally:
            if was_training:
                self.model.train()

    # Conv-tower batch size for unique-image embedding; bounds the
    # activation memory the tower caches per call.
    _EMBED_CHUNK = 64
    # Groups scored per forward call.  Dense folds a call's groups into
    # one gemm per fc layer; 32 groups (480 rows at n = 15) scored the
    # warm-service cells fastest of 16, 32, 48, 64 and 128.  The
    # training batch (``config.batch_groups``) plays no part here.
    _SCORE_CHUNK = 32

    def _select_deduplicated(self, dataset: SplitDataset) -> dict[int, int]:
        """Inference that embeds each unique image once.

        Candidate groups share source images heavily (8-10x duplication
        on the Table 3 suite), so the conv tower — the inference
        bottleneck — runs over the dataset's unique-image table and the
        per-group embeddings are gathered by index.  The embedding table
        is itself a deterministic function of (weights, image table) and
        is disk-cached next to the feature tensors, keyed by both.
        """
        tensors = dataset.tensors
        emb_table = self._embedding_table(dataset)
        assignment: dict[int, int] = {}
        chunk, n_groups = self._SCORE_CHUNK, len(dataset.groups)
        for start in range(0, n_groups, chunk):
            idx = np.arange(start, min(start + chunk, n_groups))
            vec = self.normalizer.transform(tensors.vec[idx])
            scores = self.model.forward_from_embeddings(
                vec,
                emb_table[tensors.src_index[idx]],
                emb_table[tensors.sink_index[idx]],
            )
            self._assign_choices(dataset, idx, scores, assignment)
        return assignment

    def _embedding_table(self, dataset: SplitDataset) -> np.ndarray:
        """(U, fc_width) tower embeddings of the unique-image table,
        loaded from the artifact store when possible."""
        table = dataset.tensors.image_table
        expected = (table.shape[0], self.config.fc_width)

        def load(path: Path) -> np.ndarray:
            with np.load(path) as data:
                emb = data["emb"]
            if emb.shape != expected:
                raise ValueError(f"embeddings {emb.shape}, want {expected}")
            return emb.astype(np.float32, copy=False)

        def build() -> np.ndarray:
            table_f = table.astype(np.float32)
            return np.concatenate([
                self.model.embed_images(
                    table_f[start : start + self._EMBED_CHUNK]
                )
                for start in range(0, table_f.shape[0], self._EMBED_CHUNK)
            ])

        store = artifact_store(dataset.use_disk_cache)
        if store.root is None:
            return build()  # skip hashing the weights for no file
        digest = self._shared_digest or weights_digest(self.model.state_dict())
        key = embeddings_key(dataset.cache_key, digest)
        return store.fetch(
            "embeddings", key, load, build, lambda emb: {"emb": emb}
        )

    def _assign_choices(
        self,
        dataset: SplitDataset,
        idx: np.ndarray,
        scores: np.ndarray,
        assignment: dict[int, int],
    ) -> None:
        """Map each sink of groups ``idx`` to the source of its
        best-scoring valid candidate, in group order."""
        tensors = dataset.tensors
        probs = self._connection_scores(scores)
        probs = np.where(tensors.mask[idx], probs, -np.inf)
        choices = probs.argmax(axis=1)
        assignment.update(zip(
            tensors.group_sink[idx].tolist(),
            tensors.vpp_source[idx, choices, 0].tolist(),
        ))

    def _connection_scores(self, scores: np.ndarray) -> np.ndarray:
        if self.config.loss == "two_class":
            return two_class_probabilities(scores)
        return scores

    def evaluate(self, split: SplitLayout) -> float:
        """CCR (Eq. 1) of the attack on one layout, in percent."""
        return ccr(split, self.select(split))

    # -- persistence --------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Model parameters plus normaliser and split layer, as saved."""
        state = self.model.state_dict()
        state["__norm_mean"] = self.normalizer.state()["mean"]
        state["__norm_std"] = self.normalizer.state()["std"]
        state["__split_layer"] = np.array([self.split_layer])
        return state

    def save(self, path) -> None:
        # Atomic: executor workers may race training the same config.
        atomic_savez(Path(path), self.state_arrays())

    def share(self) -> None:
        """Make this the read-only attack that
        :func:`repro.pipeline.flow.trained_attack` hands out: eval mode,
        and the weights hashed once for every embedding key to come,
        instead of on every ``select``.  Its weights must not change
        after this (``train`` and ``load`` drop the hash)."""
        self.model.eval()
        self._shared_digest = weights_digest(self.model.state_dict())

    def load(self, path) -> None:
        self._shared_digest = None
        with np.load(path) as data:
            layer = int(data["__split_layer"][0])
            if layer != self.split_layer:
                raise ValueError(
                    f"weights are for M{layer}, attack is M{self.split_layer}"
                )
            self.normalizer = FeatureNormalizer.from_state(
                {"mean": data["__norm_mean"], "std": data["__norm_std"]}
            )
            model_state = {
                k: data[k] for k in data.files if not k.startswith("__")
            }
            self.model.load_state_dict(model_state)


def _subsample_indices(
    indices: list[int], limit: int | None, rng: np.random.Generator
) -> list[int]:
    """Uniform, seeded subsample of ``indices``, order-preserving.

    Taking the *first* N labeled groups would bias training toward early
    sink fragments (fragment ids correlate with netlist order, hence
    with placement region); a uniform draw keeps the subsample
    representative while staying deterministic for a given config seed.
    """
    if limit is None or len(indices) <= limit:
        return indices
    picked = rng.choice(len(indices), size=limit, replace=False)
    return [indices[i] for i in np.sort(picked)]


def _concat_batches(batches: list[Batch]) -> Batch:
    if len(batches) == 1:
        return batches[0]
    image_batch = src_gather = sink_gather = None
    if batches[0].image_batch is not None:
        # Each batch's gather indices address its own unique-image
        # sub-table; stacking the sub-tables means offsetting every
        # batch's indices by the rows that precede its table.  (No
        # cross-dataset dedup: the sub-tables index different designs'
        # image tables.)
        image_batch = np.concatenate([b.image_batch for b in batches])
        offsets = np.cumsum([0] + [b.image_batch.shape[0] for b in batches])
        src_gather = np.concatenate(
            [b.src_gather + off for b, off in zip(batches, offsets)]
        )
        sink_gather = np.concatenate(
            [b.sink_gather + off for b, off in zip(batches, offsets)]
        )
    return Batch(
        vec=np.concatenate([b.vec for b in batches]),
        mask=np.concatenate([b.mask for b in batches]),
        targets=np.concatenate([b.targets for b in batches]),
        src_images=(
            np.concatenate([b.src_images for b in batches])
            if batches[0].src_images is not None
            else None
        ),
        sink_images=(
            np.concatenate([b.sink_images for b in batches])
            if batches[0].sink_images is not None
            else None
        ),
        groups=[g for b in batches for g in b.groups],
        image_batch=image_batch,
        src_gather=src_gather,
        sink_gather=sink_gather,
    )

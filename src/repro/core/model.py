"""SplitNet: the paper's hybrid network (Fig. 4 / Table 2).

Three parts, glued by explicit forward/backward passes:

* **vector part** — fc1 (27 -> 128) + LeakyReLU, then four residual
  blocks of three 128x128 fc layers each;
* **image part** — a shared conv tower applied to all n source-pin
  images *and* the one sink-pin image of a group: four stages of three
  3x3 convolutions (16/32/64/128 channels; stages 2-4 downsample by
  stride 3: 99 -> 33 -> 11 -> 4), global average pooling, fc3
  (128 -> 256) and fc4 (256 -> 128).  The sink embedding is broadcast
  and concatenated with every source embedding, then fc5 (256 -> 128);
* **merged part** — concatenation of the two 128-wide branches, fc
  (256 -> 128), three residual blocks, fc6 (128 -> 32), fc7 (32 -> 1;
  32 -> 2 in the two-class ablation).

Images reach the tower in one form only: a table of unique images plus
gather indices into it.  The sink image is processed once per group and
its tower gradient is the sum over the n broadcast copies — the paper's
runtime optimisation ("we only process them once to save runtime"),
reproduced exactly — and a source image shared by several candidate
slots is likewise embedded once, its gradients summed by a scatter-add.
Image models train through :meth:`SplitNet.forward_deduplicated` /
:meth:`SplitNet.backward_deduplicated` and score through
:meth:`SplitNet.forward_from_embeddings`; :meth:`SplitNet.forward` /
:meth:`SplitNet.backward` serve the vector-only model.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Conv2D,
    Dense,
    Dropout,
    GlobalAvgPool,
    LeakyReLU,
    Module,
    ResidualBlock,
    Sequential,
)
from .config import AttackConfig
from .vector_features import N_VECTOR_FEATURES


class SplitNet(Module):
    """The full network for one split layer."""

    def __init__(self, config: AttackConfig, split_layer: int):
        super().__init__()
        self.config = config
        self.split_layer = split_layer
        self.use_images = config.use_images
        self.out_dim = 2 if config.loss == "two_class" else 1
        rng = np.random.default_rng(config.seed)
        width = config.fc_width

        self.vector_branch = Sequential(
            Dense(N_VECTOR_FEATURES, width, rng=rng, name="fc1"),
            LeakyReLU(),
            *[
                ResidualBlock(width, 3, rng=rng, name=f"vres{i}")
                for i in range(config.vector_res_blocks)
            ],
        )

        merged_in = width
        if self.use_images:
            channels = config.image_channels(split_layer)
            self.tower = self._build_tower(channels, rng)
            self.image_combine = Sequential(
                Dense(2 * width, width, rng=rng, name="fc5"), LeakyReLU()
            )
            merged_in = 2 * width

        trunk_layers: list[Module] = [
            Dense(merged_in, width, rng=rng, name="fc5m"),
            LeakyReLU(),
        ]
        if config.dropout > 0.0:
            trunk_layers.append(Dropout(config.dropout, seed=config.seed))
        trunk_layers.extend(
            ResidualBlock(width, 3, rng=rng, name=f"mres{i}")
            for i in range(config.merged_res_blocks)
        )
        trunk_layers.extend(
            [
                Dense(width, 32, rng=rng, name="fc6"),
                LeakyReLU(),
                Dense(32, self.out_dim, rng=rng, name="fc7"),
            ]
        )
        self.trunk = Sequential(*trunk_layers)
        self._shape: tuple[int, int] | None = None
        # Gather indices and embedding shape of the last
        # forward_deduplicated; None after any other forward, so
        # backward_deduplicated cannot pair with activations whose tower
        # input it never saw.
        self._dedup: tuple | None = None

    def _build_tower(self, in_channels: int, rng: np.random.Generator) -> Sequential:
        cfg = self.config
        layers: list[Module] = []
        ch = in_channels
        for stage, out_ch in enumerate(cfg.conv_channels):
            for j in range(cfg.convs_per_stage):
                stride = 3 if (stage > 0 and j == 0) else 1
                layers.append(
                    Conv2D(
                        ch, out_ch, kernel=3, stride=stride, rng=rng,
                        name=f"conv{stage + 1}_{j + 1}",
                    )
                )
                layers.append(LeakyReLU())
                ch = out_ch
        layers.append(GlobalAvgPool())
        layers.append(Dense(ch, cfg.image_head_width, rng=rng, name="fc3"))
        layers.append(LeakyReLU())
        layers.append(Dense(cfg.image_head_width, cfg.fc_width, rng=rng, name="fc4"))
        layers.append(LeakyReLU())
        return Sequential(*layers)

    # -- forward ----------------------------------------------------------
    def forward(self, vec: np.ndarray) -> np.ndarray:
        """Scores of the vector-only model for a batch of candidate
        groups.

        ``vec``: (B, n, 27).  Returns (B, n) for softmax mode or
        (B, n, 2) for two-class.  Image models score through
        :meth:`forward_from_embeddings`.
        """
        if self.use_images:
            raise ValueError(
                "model configured with images; use forward_from_embeddings"
                " or forward_deduplicated"
            )
        if vec.ndim != 3 or vec.shape[-1] != N_VECTOR_FEATURES:
            raise ValueError(f"vec must be (B, n, {N_VECTOR_FEATURES})")
        self._shape = vec.shape[:2]
        scores = self.trunk(self.vector_branch(vec))
        if self.out_dim == 1:
            return scores[..., 0]
        return scores

    def embed_images(self, images: np.ndarray) -> np.ndarray:
        """Tower embeddings (K, fc_width) for a stack of (K, C, S, S)
        images.

        Inference-only building block: candidate groups share source
        images heavily (one popular source fragment is a candidate of
        many sinks), so the attack embeds each *unique* image once and
        gathers, instead of re-convolving every duplicate per group.
        """
        if not self.use_images:
            raise RuntimeError("model configured without images")
        return self.tower(images)

    def forward_from_embeddings(
        self,
        vec: np.ndarray,
        src_emb: np.ndarray,
        sink_emb: np.ndarray,
    ) -> np.ndarray:
        """Scores from precomputed tower embeddings.

        ``vec``: (B, n, F); ``src_emb``: (B, n, width); ``sink_emb``:
        (B, width).  The sink embedding is broadcast to every candidate
        slot.  Inference calls this over a cached embedding table;
        :meth:`forward_deduplicated` calls it after running the tower.
        """
        if not self.use_images:
            raise RuntimeError("model configured without images")
        batch, n, _ = vec.shape
        width = self.config.fc_width
        self._shape = (batch, n)
        self._dedup = None
        out = self.vector_branch(vec)
        combined = np.empty(
            (batch, n, 2 * width), dtype=np.result_type(src_emb, sink_emb)
        )
        combined[..., :width] = src_emb
        combined[..., width:] = sink_emb[:, None, :]
        img_out = self.image_combine(combined)
        merged = np.concatenate([out, img_out], axis=2)
        scores = self.trunk(merged)
        if self.out_dim == 1:
            return scores[..., 0]
        return scores

    def forward_deduplicated(
        self,
        vec: np.ndarray,
        image_batch: np.ndarray,
        src_gather: np.ndarray,
        sink_gather: np.ndarray,
    ) -> np.ndarray:
        """Training forward where the tower runs once per *unique*
        image in the batch.

        ``image_batch``: (U, C, S, S) unique-image sub-table;
        ``src_gather``: (B, n) and ``sink_gather``: (B,) index into its
        rows.  Pair with :meth:`backward_deduplicated`, which
        scatter-adds the per-slot embedding gradients back onto the
        unique rows — the mathematical transpose of this gather.
        """
        if not self.use_images:
            raise RuntimeError("model configured without images")
        emb = self.tower(image_batch)
        scores = self.forward_from_embeddings(
            vec, emb[src_gather], emb[sink_gather]
        )
        self._dedup = (src_gather, sink_gather, emb.shape)
        return scores

    # -- backward ---------------------------------------------------------
    def _backward_merged(
        self, grad_scores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Backward through trunk, image_combine and vector branch.

        Returns per-slot ``(grad_src_emb (B, n, width), grad_sink_emb
        (B, width))``, or ``None`` for a vector-only model.
        """
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        self._shape = None
        width = self.config.fc_width

        if self.out_dim == 1:
            grad = grad_scores[..., None]
        else:
            grad = grad_scores
        if grad.dtype != np.float64:
            grad = grad.astype(np.float32)
        grad_merged = self.trunk.backward(grad)

        if not self.use_images:
            self.vector_branch.backward(np.ascontiguousarray(grad_merged))
            return None
        grad_vec = grad_merged[..., :width]
        grad_img = grad_merged[..., width:]
        grad_combined = self.image_combine.backward(
            np.ascontiguousarray(grad_img)
        )
        grad_src = np.ascontiguousarray(grad_combined[..., :width])
        grad_sink = grad_combined[..., width:].sum(axis=1)
        self.vector_branch.backward(np.ascontiguousarray(grad_vec))
        return grad_src, grad_sink

    def backward(self, grad_scores: np.ndarray) -> None:
        """Back-propagate the vector-only model from d loss / d scores;
        accumulates gradients."""
        if self.use_images:
            raise RuntimeError(
                "model configured with images; use backward_deduplicated"
            )
        self._backward_merged(grad_scores)

    def backward_deduplicated(self, grad_scores: np.ndarray) -> None:
        """Backward for :meth:`forward_deduplicated`.

        Scatter-adds (``np.add.at``) the per-slot embedding gradients
        onto the unique-image rows — duplicates referencing the same
        row sum, as the n broadcast copies of the sink embedding do —
        then back-propagates the tower once.
        """
        if self._dedup is None:
            raise RuntimeError("last forward was not forward_deduplicated")
        src_gather, sink_gather, emb_shape = self._dedup
        self._dedup = None
        grad_src, grad_sink = self._backward_merged(grad_scores)
        width = emb_shape[1]
        grad_emb = np.zeros(emb_shape, dtype=grad_src.dtype)
        np.add.at(grad_emb, src_gather.reshape(-1), grad_src.reshape(-1, width))
        np.add.at(grad_emb, sink_gather, grad_sink)
        self._tower_backward(grad_emb)

    def _tower_backward(self, grad_emb: np.ndarray) -> None:
        """Back-propagate the tower to its parameters.

        The first conv's input gradient is d loss / d images, which no
        parameter needs, so training never computes it
        (``Conv2D.backward(..., input_grad=False)``).
        ``self.tower.backward`` still returns it, for callers that want
        it.
        """
        first, *rest = self.tower.modules
        grad = grad_emb
        for module in reversed(rest):
            grad = module.backward(grad)
        first.backward(grad, input_grad=False)

    def layer_summary(self) -> list[str]:
        """Human-readable architecture summary (compare with Table 2)."""
        lines = [
            f"SplitNet(split_layer=M{self.split_layer}, "
            f"loss={self.config.loss}, params={self.num_parameters():,})"
        ]
        lines.append(f"  vector: fc1 {N_VECTOR_FEATURES}x{self.config.fc_width}, "
                     f"{self.config.vector_res_blocks} res blocks")
        if self.use_images:
            stages = "/".join(str(c) for c in self.config.conv_channels)
            lines.append(
                f"  image: {len(self.config.conv_channels)} conv stages "
                f"({stages}) x{self.config.convs_per_stage}, "
                f"input {self.config.image_channels(self.split_layer)}ch "
                f"{self.config.image_size}px"
            )
        lines.append(
            f"  merged: {self.config.merged_res_blocks} res blocks, "
            f"fc6 {self.config.fc_width}x32, fc7 32x{self.out_dim}"
        )
        return lines

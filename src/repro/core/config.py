"""Attack configuration.

``AttackConfig.paper()`` reproduces the paper's exact settings (n = 31
candidates, 99x99 images at three scales, conv channels 16/32/64/128,
lr 1e-3 decayed x0.6 every 20 epochs).  The default configuration keeps
the same architecture shape but shrinks the image resolution, candidate
count and training schedule so the whole Table 3 suite trains and runs
on one CPU core; ``tiny()`` is for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Every field declares its role once.  ``model`` and ``features`` fields
# identify a trained model (and key its weights in the artifact store);
# ``features`` fields alone key the feature tensors; ``execution`` fields
# choose how to compute, not what, and key nothing.
MODEL = {"role": "model"}
FEATURES = {"role": "features"}
EXECUTION = {"role": "execution"}


@dataclass(frozen=True)
class AttackConfig:
    # -- candidate selection (Sec. 4.1) -------------------------------
    n_candidates: int = field(default=15, metadata=FEATURES)

    # -- image features (Sec. 3.2) ------------------------------------
    image_size: int = field(default=33, metadata=FEATURES)
    # Pixel footprints in grid tracks; the paper uses 0.05/0.1/0.2 um
    # regions — a 1:2:4 ratio, preserved here.
    image_scales: tuple[int, ...] = field(
        default=(1, 2, 4), metadata=FEATURES
    )
    use_images: bool = field(default=True, metadata=FEATURES)

    # -- vector features -----------------------------------------------
    # Feature padding assumes at most this many FEOL metal layers.
    max_feature_layers: int = field(default=4, metadata=FEATURES)

    # -- network (Table 2) ----------------------------------------------
    conv_channels: tuple[int, ...] = field(
        default=(16, 32, 64, 128), metadata=MODEL
    )
    convs_per_stage: int = field(default=3, metadata=MODEL)
    fc_width: int = field(default=128, metadata=MODEL)
    image_head_width: int = field(default=256, metadata=MODEL)
    vector_res_blocks: int = field(default=4, metadata=MODEL)
    merged_res_blocks: int = field(default=3, metadata=MODEL)
    # "softmax" (Eq. 6) or "two_class" (Eq. 3)
    loss: str = field(default="softmax", metadata=MODEL)

    # -- training ---------------------------------------------------------
    epochs: int = field(default=12, metadata=MODEL)
    batch_groups: int = field(default=8, metadata=MODEL)
    learning_rate: float = field(default=1e-3, metadata=MODEL)
    lr_decay: float = field(default=0.6, metadata=MODEL)
    lr_decay_every: int = field(default=20, metadata=MODEL)
    seed: int = field(default=0, metadata=MODEL)
    max_train_groups_per_design: int | None = field(
        default=None, metadata=MODEL
    )
    # regularisation (all off by default, matching the paper's setup)
    dropout: float = field(default=0.0, metadata=MODEL)
    weight_decay: float = field(default=0.0, metadata=MODEL)
    grad_clip: float | None = field(default=None, metadata=MODEL)
    # Execution strategy, not model identity: run the conv tower once
    # per unique image per training batch (gather/scatter-grad) instead
    # of once per duplicate slot.  ``False`` selects the materialised
    # reference path.
    train_image_dedup: bool = field(default=True, metadata=EXECUTION)

    extras: dict = field(
        default_factory=dict, compare=False, metadata=EXECUTION
    )

    def __post_init__(self):
        if self.n_candidates < 2:
            raise ValueError("need at least 2 candidates per group")
        if self.image_size < 5 or self.image_size % 2 == 0:
            raise ValueError("image_size must be odd and >= 5")
        if self.loss not in ("softmax", "two_class"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if len(self.conv_channels) < 1:
            raise ValueError("need at least one conv stage")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        if self.grad_clip is not None and self.grad_clip <= 0.0:
            raise ValueError("grad_clip must be positive")

    @property
    def n_scales(self) -> int:
        return len(self.image_scales)

    def image_channels(self, split_layer: int) -> int:
        """2m layer bits per pixel per scale (Sec. 3.2), m = split layer."""
        return 2 * split_layer * self.n_scales

    def with_(self, **changes) -> "AttackConfig":
        return replace(self, **changes)

    # -- serialisation -----------------------------------------------------
    # ``extras`` is excluded on both sides: it is compare=False scratch
    # space and never part of a configuration's identity (its execution
    # role keeps it out of artifact keys for the same reason).
    _TUPLE_FIELDS = ("image_scales", "conv_channels")

    def to_dict(self) -> dict:
        """JSON-compatible dict (tuples become lists, ``extras`` dropped)."""
        payload = {k: v for k, v in vars(self).items() if k != "extras"}
        for key in self._TUPLE_FIELDS:
            payload[key] = list(payload[key])
        # Hash-neutral at its inert value (the rf_list_threshold
        # precedent): train_image_dedup picks an execution strategy with
        # identical model semantics, so the default must not rotate
        # scenario hashes minted before the field existed.
        if payload.get("train_image_dedup") is True:
            del payload["train_image_dedup"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(payload)
        data.pop("extras", None)
        for key in cls._TUPLE_FIELDS:
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    # -- presets -----------------------------------------------------------
    @classmethod
    def paper(cls) -> "AttackConfig":
        """The paper's published hyper-parameters (GPU scale)."""
        return cls(
            n_candidates=31,
            image_size=99,
            image_scales=(1, 2, 4),
            epochs=60,
        )

    @classmethod
    def fast(cls) -> "AttackConfig":
        """CPU-budget default used by the experiment harness."""
        return cls()

    @classmethod
    def benchmark(cls) -> "AttackConfig":
        """The configuration the Table 3 / Figure 5 harnesses use.

        Same as :meth:`fast` plus a per-design cap on training groups so
        the M1 corpus (roughly 5x the M3 corpus) trains in comparable
        time.
        """
        return cls(max_train_groups_per_design=150)

    @classmethod
    def tiny(cls) -> "AttackConfig":
        """Minutes-scale settings for unit tests."""
        return cls(
            n_candidates=5,
            image_size=15,
            image_scales=(1, 2),
            conv_channels=(4, 8, 8, 16),
            fc_width=32,
            image_head_width=48,
            vector_res_blocks=1,
            merged_res_blocks=1,
            epochs=3,
            batch_groups=4,
        )

"""DLAttack training/inference integration tests (tiny scale)."""

import pytest

from repro.core import AttackConfig, DLAttack
from repro.core import attack as attack_mod
from repro.core.artifacts import weights_digest
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import ccr, split_design


@pytest.fixture(scope="module")
def splits():
    """Three small layouts split at M3."""
    out = []
    for seed in (101, 102, 103):
        nl = RandomLogicGenerator().generate(f"atk{seed}", 70, seed=seed)
        out.append(split_design(build_layout(nl), 3))
    return out


@pytest.fixture(scope="module")
def trained(splits):
    attack = DLAttack(AttackConfig.tiny().with_(epochs=8), split_layer=3)
    attack.train(splits[:2])
    return attack


class TestTraining:
    def test_loss_decreases(self, trained):
        losses = trained.log.losses
        assert losses[-1] < losses[0]

    def test_log_records_every_epoch(self, trained):
        assert trained.log.epochs == list(range(1, 9))
        assert len(trained.log.losses) == 8
        assert trained.log.train_seconds > 0

    def test_layer_mismatch_rejected(self, splits):
        attack = DLAttack(AttackConfig.tiny(), split_layer=1)
        with pytest.raises(ValueError, match="M1"):
            attack.train(splits[:1])

    @pytest.mark.parametrize("use_images", [True, False],
                             ids=["images", "vector-only"])
    def test_validation_layer_mismatch_rejected(
        self, splits, use_images, monkeypatch
    ):
        """A validation layout at another split layer is refused up
        front, before any dataset is built or training step runs."""
        nl = RandomLogicGenerator().generate("atk101", 70, seed=101)
        m1 = split_design(build_layout(nl), 1)

        def refuse(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(DLAttack, "_train_step", refuse)
        monkeypatch.setattr(attack_mod, "SplitDataset", refuse)
        cfg = AttackConfig.tiny().with_(epochs=1, use_images=use_images)
        attack = DLAttack(cfg, split_layer=3)
        with pytest.raises(ValueError, match="M1 validation layout"):
            attack.train(splits[:1], val_splits=[m1])

    def test_untrained_attack_refuses_to_predict(self, splits):
        attack = DLAttack(AttackConfig.tiny(), split_layer=3)
        with pytest.raises(RuntimeError, match="not trained"):
            attack.select(splits[0])


class TestInference:
    def test_assignment_covers_groups(self, trained, splits):
        test = splits[2]
        result = trained.attack(test)
        sources = {f.fragment_id for f in test.source_fragments}
        assert set(result.assignment.values()) <= sources
        # every sink fragment with candidates gets a prediction
        from repro.core import SplitDataset

        ds = SplitDataset(test, trained.config)
        assert len(result.assignment) == len(ds.groups)

    def test_memorises_training_design(self, splits):
        """Overfitting sanity: a model trained on one design must beat
        chance on it by a wide margin."""
        attack = DLAttack(
            AttackConfig.tiny().with_(epochs=25), split_layer=3
        )
        attack.train(splits[:1])
        train_ccr = attack.evaluate(splits[0])
        n_sources = len(splits[0].source_fragments)
        chance = 100.0 / n_sources
        assert train_ccr > 4 * chance

    def test_runtime_recorded(self, trained, splits):
        result = trained.attack(splits[2])
        assert result.runtime_s > 0
        assert result.attack_name == "dl-attack"

    def test_deterministic_predictions(self, trained, splits):
        a = trained.select(splits[2])
        b = trained.select(splits[2])
        assert a == b

    @pytest.mark.parametrize("use_images", [True, False],
                             ids=["images", "vector-only"])
    def test_inference_builds_no_batches(self, splits, use_images,
                                         monkeypatch):
        """Scoring reads the feature tensors directly: training batches
        (and their targets) play no part in inference."""
        cfg = AttackConfig.tiny().with_(epochs=1, use_images=use_images)
        attack = DLAttack(cfg, split_layer=3)
        attack.train(splits[:1])

        def refuse(*args, **kwargs):
            raise AssertionError("inference built a batch")

        monkeypatch.setattr(attack_mod, "make_batch", refuse)
        assignment = attack.select(splits[2])
        assert assignment


class TestPersistence:
    def test_save_load_roundtrip(self, trained, splits, tmp_path):
        path = tmp_path / "attack.npz"
        trained.save(path)
        clone = DLAttack(trained.config, split_layer=3)
        clone.load(path)
        assert clone.select(splits[2]) == trained.select(splits[2])

    def test_wrong_layer_weights_rejected(self, trained, tmp_path):
        path = tmp_path / "attack.npz"
        trained.save(path)
        other = DLAttack(trained.config, split_layer=1)
        with pytest.raises(ValueError, match="M3"):
            other.load(path)


class TestVariants:
    def test_two_class_variant_trains(self, splits):
        cfg = AttackConfig.tiny().with_(loss="two_class", use_images=False)
        attack = DLAttack(cfg, split_layer=3)
        attack.train(splits[:1])
        result = attack.attack(splits[2])
        assert 0.0 <= ccr(splits[2], result.assignment) <= 100.0

    def test_vec_only_variant_trains(self, splits):
        cfg = AttackConfig.tiny().with_(use_images=False)
        attack = DLAttack(cfg, split_layer=3)
        attack.train(splits[:1])
        assert attack.log.losses[-1] < attack.log.losses[0]

    def test_max_train_groups_cap(self, splits):
        cfg = AttackConfig.tiny().with_(max_train_groups_per_design=3)
        attack = DLAttack(cfg, split_layer=3)
        attack.train(splits[:2])
        assert attack.log.losses  # trained on the capped corpus


class TestTrainEvalModeRegression:
    """The eval-mode clobber: per-epoch validation runs inference in
    eval mode, and before the fix it left the model in eval mode — so
    with ``val_splits`` and ``dropout > 0`` dropout was silently
    disabled from epoch 2 onward."""

    def test_dropout_live_after_first_validation(self, splits, monkeypatch):
        from repro.nn.regularization import Dropout

        mask_live: list[bool] = []
        orig_forward = Dropout.forward

        def spy(self, x):
            out = orig_forward(self, x)
            mask_live.append(self._mask is not None)
            return out

        monkeypatch.setattr(Dropout, "forward", spy)
        cfg = AttackConfig.tiny().with_(epochs=2, dropout=0.3)
        attack = DLAttack(cfg, split_layer=3)
        attack.train(splits[:1], val_splits=[splits[1]])

        # Epoch 1 trains with a live mask, validation runs with the
        # mask off; epoch 2's training forwards must be live again.
        assert True in mask_live and False in mask_live
        after_validation = mask_live[mask_live.index(False) :]
        assert any(after_validation), (
            "dropout never re-enabled after the first validation pass"
        )

    def test_select_restores_training_mode(self, trained, splits):
        trained.model.train()
        trained.select(splits[2])
        assert trained.model.training is True
        trained.model.eval()
        trained.select(splits[2])
        assert trained.model.training is False


class TestValidationDatasetHoisting:
    def test_val_datasets_built_once(self, splits, monkeypatch):
        """Validation feature extraction is epoch-invariant; before the
        fix every epoch rebuilt each val SplitDataset from scratch."""
        import repro.core.attack as attack_mod

        real = attack_mod.SplitDataset
        constructed = []

        class Counting(real):
            def __init__(self, split, *args, **kwargs):
                constructed.append(split.name)
                super().__init__(split, *args, **kwargs)

        monkeypatch.setattr(attack_mod, "SplitDataset", Counting)
        cfg = AttackConfig.tiny().with_(epochs=3)
        attack = DLAttack(cfg, split_layer=3)
        attack.train(splits[:1], val_splits=[splits[1]])
        assert len(attack.log.val_ccr) == 3
        # one per training design + one per val layout, epoch-independent
        assert len(constructed) == 2


class TestWeightsTag:
    """The parameter-state half of the embedding-table key."""

    def test_shape_and_dtype_break_collisions(self):
        """Raw tobytes() would collide e.g. (2,3) with (3,2) and f32
        zeros with i32 zeros; the key must separate all of them."""
        import numpy as np

        states = [
            {"p": np.zeros((2, 3), dtype=np.float32)},
            {"p": np.zeros((3, 2), dtype=np.float32)},
            {"p": np.zeros((2, 3), dtype=np.int32)},
        ]
        keys = {weights_digest(state) for state in states}
        assert len(keys) == len(states)

    def test_tag_is_deterministic(self, trained):
        state = trained.model.state_dict()
        assert weights_digest(state) == weights_digest(state)

    def test_shared_attack_hashes_its_weights_once(
        self, trained, splits, monkeypatch, tmp_path
    ):
        import repro.core.attack as attack_mod

        path = tmp_path / "weights.npz"
        trained.save(path)
        attack = DLAttack(trained.config, split_layer=3)
        attack.load(path)
        attack.share()
        hashed, keyed = [], []
        real_digest = attack_mod.weights_digest
        real_key = attack_mod.embeddings_key
        monkeypatch.setattr(
            attack_mod, "weights_digest",
            lambda state: hashed.append(1) or real_digest(state),
        )
        monkeypatch.setattr(
            attack_mod, "embeddings_key",
            lambda features, weights: keyed.append(weights)
            or real_key(features, weights),
        )
        attack.select(splits[2])
        attack.select(splits[2])
        assert not hashed
        assert keyed == [real_digest(trained.model.state_dict())] * 2

    def test_validation_keys_the_current_weights(self, splits, monkeypatch):
        """Weights change between per-epoch validation selects; each
        select keys its embeddings by the weights it scores with."""
        import repro.core.attack as attack_mod

        keyed = []
        real_key = attack_mod.embeddings_key
        monkeypatch.setattr(
            attack_mod, "embeddings_key",
            lambda features, weights: keyed.append(weights)
            or real_key(features, weights),
        )
        attack = DLAttack(AttackConfig.tiny().with_(epochs=2), split_layer=3)
        attack.train(splits[:1], val_splits=[splits[1]])
        assert len(keyed) == 2
        assert keyed[0] != keyed[1]
        assert keyed[1] == weights_digest(attack.model.state_dict())

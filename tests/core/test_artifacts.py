"""The artifact store's key scheme: declared field roles, one key
function, and the committed cache file names it must keep."""

import dataclasses
from pathlib import Path

import numpy as np

from repro.core import AttackConfig
from repro.core.artifacts import (
    ArtifactStore,
    artifact_key,
    feature_config_fingerprint,
    features_key,
    weights_key,
)
from repro.eval.figure5 import VARIANTS, variant_config
from repro.pipeline import attack_weight_path, default_train_names, get_split

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"

#: Every trained model in the committed cache: the benchmark config at
#: M1 and M3 and the Figure 5 variants at M3 ("vec&img" is the M3
#: benchmark model itself).
COMMITTED_WEIGHTS = {
    "dl_attack_m1_cfed441ced8d321a.npz",
    "dl_attack_m3_3c4ae159813d1363.npz",
    "dl_attack_m3_39d72a2a946872c5.npz",
    "dl_attack_m3_77217760e69ddb22.npz",
}


def committed_models():
    base = AttackConfig.benchmark()
    yield base, 1
    yield base, 3
    for variant in VARIANTS:
        yield variant_config(base, variant), 3


ROLES = ("model", "features", "execution")


class TestFieldRoles:
    def test_every_field_declares_a_role(self):
        unclassified = [
            f.name for f in dataclasses.fields(AttackConfig)
            if f.metadata.get("role") not in ROLES
        ]
        assert unclassified == []

    def test_execution_field_keys_nothing(self):
        base = AttackConfig.tiny()
        other = base.with_(train_image_dedup=False)
        names = ("tiny_a",)
        split = get_split("tiny_a", 3)
        assert weights_key(other, 3, names) == weights_key(base, 3, names)
        assert features_key(split, other) == features_key(split, base)
        assert feature_config_fingerprint(other) == (
            feature_config_fingerprint(base)
        )

    def test_model_field_keys_weights_only(self):
        base = AttackConfig.tiny()
        other = base.with_(epochs=99)
        split = get_split("tiny_a", 3)
        assert weights_key(other, 3, ()) != weights_key(base, 3, ())
        assert features_key(split, other) == features_key(split, base)

    def test_feature_field_keys_both(self):
        base = AttackConfig.tiny()
        other = base.with_(n_candidates=4)
        split = get_split("tiny_a", 3)
        assert weights_key(other, 3, ()) != weights_key(base, 3, ())
        assert features_key(split, other) != features_key(split, base)


class TestCommittedNames:
    def test_weight_files_are_store_keys(self):
        store = ArtifactStore(COMMITTED)
        names = default_train_names()
        paths = {
            store.path("weights", weights_key(config, layer, names))
            for config, layer in committed_models()
        }
        assert {p.name for p in paths} == COMMITTED_WEIGHTS
        assert all(p.exists() for p in paths)

    def test_numpy_scalar_config_resolves_to_committed_weights(
        self, monkeypatch
    ):
        # numpy 2 reprs np.float64(1e-3) as "np.float64(0.001)"; the key
        # must not see the difference the config equality ignores.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(COMMITTED))
        config = AttackConfig.benchmark().with_(
            learning_rate=np.float64(1e-3)
        )
        assert config == AttackConfig.benchmark()
        path = attack_weight_path(config, 3)
        assert path.name == "dl_attack_m3_3c4ae159813d1363.npz"
        assert path.exists()


class TestArtifactKey:
    def test_numpy_scalars_hash_as_python_scalars(self):
        assert artifact_key((np.int64(3), [np.float32(0.5)])) == (
            artifact_key((3, [0.5]))
        )

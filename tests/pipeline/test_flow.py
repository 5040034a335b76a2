"""Pipeline caching: layouts and trained attacks."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import AttackConfig, SplitDataset
from repro.core.artifacts import (
    artifact_key,
    artifact_store,
    features_key,
    layout_fingerprint,
    weights_key,
)
from repro.layout import write_def
from repro.pipeline import (
    build_netlist,
    clear_memo,
    get_defended_layout,
    get_defended_split,
    get_split,
    trained_attack,
)

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
COMMITTED_LAYOUTS = sorted(p.stem for p in COMMITTED.glob("*.def"))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_memo()
    yield
    clear_memo()


class TestNetlistLookup:
    def test_table3_design(self):
        nl = build_netlist("c432")
        assert nl.name == "c432"

    def test_suite_design(self):
        nl = build_netlist("tiny_a")
        assert nl.name == "tiny_a"

    def test_unknown_design(self):
        with pytest.raises(KeyError, match="unknown design"):
            build_netlist("nope_99")


class TestLayoutCache:
    def test_memoised_within_process(self):
        a = get_defended_layout("tiny_a")
        b = get_defended_layout("tiny_a")
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path):
        first = get_defended_layout("tiny_a")
        clear_memo()
        second = get_defended_layout("tiny_a")  # now from disk
        assert first is not second
        assert first.placement.locations == second.placement.locations
        for name, route in first.routes.items():
            assert route.edges == second.routes[name].edges

    def test_disk_cache_disabled(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        layout = get_defended_layout("tiny_b")
        assert layout is get_defended_layout("tiny_b")

    def test_split_memoised(self):
        a = get_split("tiny_a", 3)
        assert a is get_split("tiny_a", 3)
        assert a is not get_split("tiny_a", 1)


class TestLayoutFingerprint:
    """A layout's artifact keys hash the DEF text the store read or
    wrote, which for every committed layout is its serialisation."""

    @pytest.mark.skipif(
        not COMMITTED.is_dir(), reason="committed warm cache not present"
    )
    @pytest.mark.parametrize("stem", COMMITTED_LAYOUTS)
    def test_key_is_the_serialisation_hash(self, tmp_path, stem):
        shutil.copyfile(COMMITTED / f"{stem}.def", tmp_path / f"{stem}.def")
        name, _, defense = stem.partition("__")
        args = ()
        if defense:
            kind, strength, seed = defense.split("_")
            args = (kind, float(strength), int(seed.removeprefix("s")))
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CACHE_DIR", str(tmp_path))
            design = get_defended_layout(name, *args)
            get_defended_split(name, 3, *args)  # splitting changes nothing
        want = artifact_key(write_def(design).encode(), digits=64)
        assert layout_fingerprint(design) == want

    def test_built_layout_keyed_by_the_written_text(self):
        design = get_defended_layout("tiny_a")
        text = artifact_store().path("layout", "tiny_a").read_text()
        assert layout_fingerprint(design) == artifact_key(
            text.encode(), digits=64
        )

    def test_non_canonical_def_misses_the_feature_cache(self):
        config = AttackConfig.tiny()
        canonical = SplitDataset(get_split("tiny_a", 3), config)
        path = artifact_store().path("layout", "tiny_a")
        # Blank lines parse to the same design, but it is other text.
        path.write_text("\n" + path.read_text().replace("\n", "\n\n"))
        clear_memo()
        split = get_split("tiny_a", 3)
        assert write_def(split.design) == write_def(canonical.split.design)
        assert features_key(split, config) != canonical.cache_key
        reread = SplitDataset(split, config)
        assert reread.cache_key != canonical.cache_key
        assert artifact_store().exists("features", reread.cache_key)
        assert np.array_equal(reread.tensors.vec, canonical.tensors.vec)


class TestTrainedAttackCache:
    def test_train_and_reload(self):
        cfg = AttackConfig.tiny().with_(epochs=2)
        names = ("tiny_a", "tiny_b")
        first = trained_attack(3, cfg, train_names=names)
        second = trained_attack(3, cfg, train_names=names)
        split = get_split("tiny_seq", 3)
        assert first.select(split) == second.select(split)
        # second load must not have retrained
        assert second.log.train_seconds == 0.0

    def test_fingerprint_sensitive_to_config(self):
        a = AttackConfig.tiny()
        b = AttackConfig.tiny().with_(epochs=99)
        names = ("x",)
        assert weights_key(a, 3, names) != weights_key(b, 3, names)
        assert weights_key(a, 1, names) != weights_key(a, 3, names)

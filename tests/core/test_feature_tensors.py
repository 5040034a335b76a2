"""Precomputed feature tensors: slicing parity, disk cache round-trip."""

import io
import json

import numpy as np
import pytest

from repro.core import AttackConfig, FeatureNormalizer, SplitDataset, make_batch
from repro.core.artifacts import cache_root
from repro.core.vector_features import group_vector_features
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.obs import metrics
from repro.obs.logging import set_log_sink
from repro.split import split_design

from identity_gather import materialised_images


@pytest.fixture(scope="module")
def split():
    nl = RandomLogicGenerator().generate("tensortest", 70, seed=23)
    return split_design(build_layout(nl), 3)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def feature_files() -> list:
    return list((cache_root() / "features").glob("*.npz"))


class TestTensorShapes:
    def test_tensor_shapes(self, split):
        cfg = AttackConfig.tiny()
        ds = SplitDataset(split, cfg)
        g, n = len(ds.groups), cfg.n_candidates
        t = ds.tensors
        assert t.vec.shape[0] == g and t.vec.shape[1] == n
        assert t.mask.shape == (g, n)
        assert t.targets.shape == (g,)
        assert t.image_table.shape[0] >= 1
        assert t.src_index.shape == (g, n)
        assert t.sink_index.shape == (g,)
        # padding row 0 is all zero and every padded slot points at it
        assert not t.image_table[0].any()
        assert np.all(t.src_index[~t.mask] == 0)

    def test_group_views_alias_tensors(self, split):
        ds = SplitDataset(split, AttackConfig.tiny())
        for g in ds.groups[:5]:
            assert np.shares_memory(g.vec, ds.tensors.vec)
            assert g.vec.base is ds.tensors.vec

    def test_vec_matches_per_group_recompute(self, split):
        cfg = AttackConfig.tiny()
        ds = SplitDataset(split, cfg)
        for g in ds.groups[:10]:
            vec, mask = group_vector_features(
                split, g.vpps, cfg.n_candidates, cfg.max_feature_layers
            )
            assert np.array_equal(ds.tensors.vec[g.index], vec)
            assert np.array_equal(ds.tensors.mask[g.index], mask)

    def test_images_match_extractor(self, split):
        cfg = AttackConfig.tiny()
        ds = SplitDataset(split, cfg)
        group = ds.groups[0]
        (src,), (sink,) = materialised_images(ds, [group.index])
        for i, vpp in enumerate(group.vpps[: cfg.n_candidates]):
            frag = split.fragment(vpp.source_fragment)
            expected = ds.images.image(frag, vpp.source_vp)
            assert np.array_equal(src[i], expected.astype(np.float32))
        sink_frag = split.fragment(group.sink_fragment_id)
        expected = ds.images.image(sink_frag, sink_frag.virtual_pins[0])
        assert np.array_equal(sink, expected.astype(np.float32))


class TestBatchSlicing:
    def test_make_batch_matches_manual_assembly(self, split):
        cfg = AttackConfig.tiny()
        ds = SplitDataset(split, cfg)
        norm = FeatureNormalizer().fit(ds.all_vector_rows())
        groups = ds.trainable_groups()[:4]
        batch = make_batch(ds, [g.index for g in groups], norm)
        expected_vec = np.stack([norm.transform(g.vec) for g in groups])
        assert np.array_equal(batch.vec, expected_vec)
        assert np.array_equal(batch.targets, [g.target for g in groups])
        src, sink = materialised_images(ds, [g.index for g in groups])
        assert np.array_equal(batch.image_batch[batch.src_gather], src)
        assert np.array_equal(batch.image_batch[batch.sink_gather], sink)


class TestDiskCache:
    def test_cache_roundtrip_is_identical(self, split):
        cfg = AttackConfig.tiny()
        first = SplitDataset(split, cfg)
        files = feature_files()
        assert len(files) == 1, "expected one cached tensor file"
        second = SplitDataset(split, cfg)  # warm: loads from disk
        t1, t2 = first.tensors, second.tensors
        assert np.array_equal(t1.vec, t2.vec)
        assert np.array_equal(t1.mask, t2.mask)
        assert np.array_equal(t1.targets, t2.targets)
        assert np.array_equal(t1.image_table, t2.image_table)
        assert np.array_equal(t1.src_index, t2.src_index)
        assert np.array_equal(t1.sink_index, t2.sink_index)

    def test_cache_key_sensitive_to_config(self, split):
        SplitDataset(split, AttackConfig.tiny())
        SplitDataset(split, AttackConfig.tiny().with_(n_candidates=4))
        assert len(feature_files()) == 2

    def test_corrupt_cache_recomputed(self, split):
        cfg = AttackConfig.tiny()
        SplitDataset(split, cfg)
        (path,) = feature_files()
        path.write_bytes(b"not an npz file")
        ds = SplitDataset(split, cfg)  # reported, then recomputed
        assert ds.tensors.vec.shape[0] == len(ds.groups)

    def test_cache_disabled_by_env(self, split, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        ds = SplitDataset(split, AttackConfig.tiny())
        assert ds.tensors.vec.shape[0] == len(ds.groups)

    def test_cache_opt_out_parameter(self, split):
        SplitDataset(split, AttackConfig.tiny(), use_disk_cache=False)
        assert not feature_files()


class TestCorruptCandidateArrays:
    """A feature file whose candidate arrays contradict the layout is
    reported, counted and rebuilt, never loaded."""

    @pytest.fixture()
    def captured_log(self):
        sink = io.StringIO()
        set_log_sink(sink)
        yield sink
        set_log_sink(None)

    @staticmethod
    def rebuilt_count() -> float:
        return metrics.counter(
            "repro_artifacts_rebuilt_total", labels=("kind",)
        ).value_of(kind="features")

    @staticmethod
    def damage(path, fault) -> None:
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        fault(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def unknown_id(self, split) -> int:
        return max(f.fragment_id for f in split.fragments) + 1

    def faults(self, split, n):
        def unknown_source(arrays):
            arrays["vpp_source"][0, 0, 0] = self.unknown_id(split)

        def no_candidates(arrays):
            arrays["n_valid"][0] = 0

        def too_many_candidates(arrays):
            arrays["n_valid"][0] = n + 1

        def sink_not_a_sink(arrays):
            arrays["group_sink"][0] = split.source_fragments[0].fragment_id

        return [
            unknown_source, no_candidates, too_many_candidates,
            sink_not_a_sink,
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_fault_rebuilt(self, split, captured_log, case):
        cfg = AttackConfig.tiny()
        clean = SplitDataset(split, cfg)
        (path,) = feature_files()
        self.damage(path, self.faults(split, cfg.n_candidates)[case])
        with pytest.raises(ValueError):
            clean._load_cache(path)
        before = self.rebuilt_count()
        rebuilt = SplitDataset(split, cfg)
        events = [
            json.loads(line) for line in captured_log.getvalue().splitlines()
        ]
        assert [
            e["kind"] for e in events if e["event"] == "artifact_rebuilt"
        ] == ["features"]
        assert self.rebuilt_count() == before + 1
        assert np.array_equal(rebuilt.tensors.vec, clean.tensors.vec)
        assert np.array_equal(rebuilt.tensors.targets, clean.tensors.targets)
        # Rewritten: the next build reads the file cleanly.
        SplitDataset(split, cfg)
        assert self.rebuilt_count() == before + 1

    def test_unknown_id_in_padded_slot_still_loads(self, split, captured_log):
        # More slots than the layout has sources: every group is padded.
        cfg = AttackConfig.tiny().with_(n_candidates=20)
        clean = SplitDataset(split, cfg)
        n = cfg.n_candidates
        short = np.flatnonzero(clean.tensors.n_valid < n)
        assert short.size
        (path,) = feature_files()

        def padded_unknown(arrays):
            arrays["vpp_source"][short[0], n - 1, 0] = self.unknown_id(split)

        self.damage(path, padded_unknown)
        before = self.rebuilt_count()
        warm = SplitDataset(split, cfg)
        assert self.rebuilt_count() == before
        assert "artifact_rebuilt" not in captured_log.getvalue()
        assert warm.tensors.vpp_source[short[0], n - 1, 0] == (
            self.unknown_id(split)
        )
        assert np.array_equal(warm.tensors.targets, clean.tensors.targets)

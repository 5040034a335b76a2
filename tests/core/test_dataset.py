"""Dataset assembly: groups, padding, targets, batching."""

import numpy as np
import pytest

from repro.core import AttackConfig, FeatureNormalizer, SplitDataset, make_batch
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import split_design

from identity_gather import materialised_images


@pytest.fixture(scope="module")
def split():
    nl = RandomLogicGenerator().generate("dstest", 80, seed=91)
    return split_design(build_layout(nl), 3)


@pytest.fixture(scope="module")
def dataset(split):
    return SplitDataset(split, AttackConfig.tiny())


class TestGroups:
    def test_one_group_per_sink_fragment_with_candidates(self, split, dataset):
        assert (
            len(dataset.groups) + dataset.n_skipped_empty
            == len(split.sink_fragments)
        )

    def test_group_shapes(self, dataset):
        n = dataset.config.n_candidates
        for group in dataset.groups:
            assert group.vec.shape == (n, 27)
            assert group.mask.shape == (n,)
            assert group.n_valid == len(group.vpps[:n])

    def test_targets_point_at_positive_vpp(self, split, dataset):
        for group in dataset.groups:
            if group.target is None:
                continue
            vpp = group.vpps[group.target]
            assert split.truth[group.sink_fragment_id] == vpp.source_fragment

    def test_trainable_subset(self, dataset):
        trainable = dataset.trainable_groups()
        assert trainable
        assert all(g.target is not None for g in trainable)

    def test_vector_rows_only_valid(self, dataset):
        rows = dataset.all_vector_rows()
        assert rows.shape[0] == sum(g.n_valid for g in dataset.groups)


class TestImages:
    def test_group_images_shapes(self, dataset):
        cfg = dataset.config
        src, sink = materialised_images(dataset, [0])
        c = dataset.images.n_channels
        assert src.shape == (1, cfg.n_candidates, c, cfg.image_size, cfg.image_size)
        assert sink.shape == (1, c, cfg.image_size, cfg.image_size)

    def test_padded_candidates_have_zero_images(self, dataset):
        group = next((g for g in dataset.groups if not g.mask.all()), None)
        if group is None:
            pytest.skip("all groups full in this layout")
        src, _sink = materialised_images(dataset, [group.index])
        assert np.all(src[0][~group.mask] == 0)

    def test_images_disabled(self, split):
        ds = SplitDataset(split, AttackConfig.tiny().with_(use_images=False))
        assert ds.images is None
        assert ds.tensors.image_table is None
        norm = FeatureNormalizer().fit(ds.all_vector_rows())
        labelled = np.flatnonzero(ds.tensors.targets >= 0)
        batch = make_batch(ds, labelled[:2], norm)
        assert batch.image_batch is None
        assert batch.src_gather is None and batch.sink_gather is None


class TestBatching:
    def test_make_batch_shapes(self, dataset):
        norm = FeatureNormalizer().fit(dataset.all_vector_rows())
        groups = dataset.trainable_groups()[:3]
        batch = make_batch(dataset, [g.index for g in groups], norm)
        n = dataset.config.n_candidates
        assert batch.vec.shape == (3, n, 27)
        assert batch.mask.shape == (3, n)
        assert batch.targets.shape == (3,)
        assert batch.src_gather.shape == (3, n)
        assert batch.sink_gather.shape == (3,)
        assert batch.image_batch.shape[1:] == (
            dataset.images.n_channels,
            dataset.config.image_size,
            dataset.config.image_size,
        )

    def test_unlabeled_group_rejected_for_training(self, dataset):
        norm = FeatureNormalizer().fit(dataset.all_vector_rows())
        unlabeled = [g for g in dataset.groups if g.target is None]
        if not unlabeled:
            pytest.skip("no unlabeled groups in this layout")
        with pytest.raises(ValueError, match="unlabeled"):
            make_batch(dataset, [unlabeled[0].index], norm)

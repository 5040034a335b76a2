"""The array-backed warm feature load against the per-VPP reference.

``SplitDataset._load_cache`` validates a feature file's candidate arrays
and derives masks and targets as array operations, building no VPP
objects.  :func:`oracle_load` below is the loader it replaced: one
Python iteration per candidate slot, rebuilding every ``VirtualPin``
and ``VPP``.  On every committed feature file both must agree on the
group sinks, targets, masks, skipped sinks, candidate recall and the
VPP lists themselves; and the DL attack's assignments on the
warm-service cells (14 Table-3 designs x M1/M3) must equal, value for
value and in order, those the oracle's per-group choice loop makes
from the same scores.
"""

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import repro.core.attack as attack_mod
from repro.core import AttackConfig, SplitDataset
from repro.core.artifacts import embeddings_key, features_key, weights_digest
from repro.core.attack import DLAttack
from repro.core.vector_features import N_VECTOR_FEATURES
from repro.netlist.benchmarks import TABLE3_SPECS
from repro.pipeline import clear_memo, get_split, trained_attack
from repro.split.fragments import VirtualPin
from repro.split.split import VPP

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
LAYERS = (1, 3)
CONFIGS = {
    "images": AttackConfig.benchmark(),
    "vector-only": AttackConfig.benchmark().with_(use_images=False),
}
# Feature files are committed for the Table-3 layouts only.
TABLE3 = tuple(s.name for s in TABLE3_SPECS)
# The layouts of the warm-service benchmark: every Table-3 design but
# the two largest.
WARM_SERVICE = tuple(d for d in TABLE3 if d not in ("b17_1", "b18"))


def committed_feature_keys() -> set[str]:
    return {
        p.stem for p in (COMMITTED / "features").glob("*.npz")
        if not p.stem.startswith("emb_")
    }


# -- the reference loader ----------------------------------------------------


@dataclass
class OracleGroup:
    sink_fragment_id: int
    vpps: list
    target: int | None
    mask: np.ndarray


@dataclass
class OracleDataset:
    groups: list
    n_skipped_empty: int
    candidates: dict
    mask: np.ndarray
    targets: np.ndarray


def oracle_load(split, config, path) -> OracleDataset:
    """The per-VPP warm loader the array-backed one replaced."""
    n = config.n_candidates
    with np.load(path) as data:
        vec = data["vec"].astype(np.float32, copy=False)
        group_sink = data["group_sink"]
        n_valid = data["n_valid"]
        vpp_sink = data["vpp_sink"]
        vpp_source = data["vpp_source"]

    g = group_sink.shape[0]
    sink_ids = {f.fragment_id for f in split.sink_fragments}
    if (
        vec.shape != (g, n, N_VECTOR_FEATURES)
        or n_valid.shape != (g,)
        or vpp_sink.shape != (g, n, 3)
        or vpp_source.shape != (g, n, 3)
        or g > len(sink_ids)
        or not set(group_sink.tolist()) <= sink_ids
    ):
        raise ValueError("feature tensors do not match the layout")

    fragment_ids = {f.fragment_id for f in split.fragments}
    groups = []
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
            vpps.append(VPP(VirtualPin(sf, sx, sy), VirtualPin(qf, qx, qy)))
        sink_fid = int(group_sink[i])
        truth = split.truth.get(sink_fid)
        target = None
        for j, vpp in enumerate(vpps):
            if vpp.source_fragment == truth:
                target = j
                break
        mask = np.zeros(n, dtype=bool)
        mask[:k] = True
        groups.append(OracleGroup(sink_fid, vpps, target, mask))

    candidates = {fid: [] for fid in sink_ids}
    candidates.update({grp.sink_fragment_id: grp.vpps for grp in groups})
    return OracleDataset(
        groups=groups,
        n_skipped_empty=len(sink_ids) - g,
        candidates=candidates,
        mask=(
            np.stack([grp.mask for grp in groups]) if groups
            else np.zeros((0, n), dtype=bool)
        ),
        targets=np.array(
            [-1 if grp.target is None else grp.target for grp in groups],
            dtype=np.int64,
        ),
    )


def oracle_assign_choices(attack, groups, mask, scores, assignment) -> None:
    """The per-group choice loop the array-backed one replaced."""
    probs = attack._connection_scores(scores)
    probs = np.where(mask, probs, -np.inf)
    choices = probs.argmax(axis=1)
    for group, choice in zip(groups, choices):
        vpp = group.vpps[int(choice)]
        assignment[group.sink_fragment_id] = vpp.source_fragment


# -- fixtures ---------------------------------------------------------------


pytestmark = pytest.mark.skipif(
    not (COMMITTED / "features").is_dir(),
    reason="committed warm cache not present",
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """A copy of the committed cache: a rotated key would write into the
    copy, not the checkout."""
    root = tmp_path_factory.mktemp("committed") / "cache"
    shutil.copytree(COMMITTED, root)
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_CACHE_DIR", str(root))
    clear_memo()
    yield root
    clear_memo()
    patcher.undo()


def test_every_committed_feature_file_is_enumerated(cache):
    """The parametrised cases below cover each committed feature file."""
    keys = {
        features_key(get_split(design, layer), config)
        for design in TABLE3
        for layer in LAYERS
        for config in CONFIGS.values()
    }
    assert committed_feature_keys() <= keys


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("design", TABLE3)
def test_warm_load_matches_oracle(cache, design, layer):
    split = get_split(design, layer)
    committed = committed_feature_keys()
    checked = 0
    for config in CONFIGS.values():
        key = features_key(split, config)
        if key not in committed:
            continue
        path = cache / "features" / f"{key}.npz"
        want = oracle_load(split, config, path)
        got = SplitDataset(split, config)
        assert got.cache_key == key
        t = got.tensors
        assert t.group_sink.tolist() == [
            g.sink_fragment_id for g in want.groups
        ]
        assert [g.sink_fragment_id for g in got.groups] == [
            g.sink_fragment_id for g in want.groups
        ]
        assert np.array_equal(t.targets, want.targets)
        assert t.targets.dtype == want.targets.dtype
        assert [g.target for g in got.groups] == [
            g.target for g in want.groups
        ]
        assert np.array_equal(t.mask, want.mask)
        assert t.mask.dtype == want.mask.dtype
        assert got.n_skipped_empty == want.n_skipped_empty
        n_sinks = len(split.sink_fragments)
        want_recall = (
            int((want.targets >= 0).sum()) / n_sinks if n_sinks else 1.0
        )
        assert got.candidate_recall() == want_recall
        assert [g.vpps for g in got.groups] == [g.vpps for g in want.groups]
        assert got.candidates == want.candidates
        checked += 1
    assert checked, f"no committed feature file for {design}/M{layer}"


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("design", WARM_SERVICE)
def test_dl_assignment_matches_oracle(cache, monkeypatch, design, layer):
    config = AttackConfig.benchmark()
    split = get_split(design, layer)
    oracle = oracle_load(
        split, config,
        cache / "features" / f"{features_key(split, config)}.npz",
    )
    expected: dict[int, int] = {}
    assign = DLAttack._assign_choices

    def both(self, dataset, idx, scores, assignment):
        oracle_assign_choices(
            self, [oracle.groups[i] for i in idx.tolist()],
            oracle.mask[idx], scores, expected,
        )
        assign(self, dataset, idx, scores, assignment)

    monkeypatch.setattr(DLAttack, "_assign_choices", both)
    got = trained_attack(layer, config).select(split)
    assert expected
    assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("layer", LAYERS)
def test_shared_weights_key_committed_embeddings(cache, layer):
    """A shared attack hashes its weights once, into the same embedding
    keys as hashing them on every select: the committed files' names."""
    config = AttackConfig.benchmark()
    attack = trained_attack(layer, config)
    digest = weights_digest(attack.model.state_dict())
    for design in WARM_SERVICE:
        features = features_key(get_split(design, layer), config)
        key = embeddings_key(features, digest)
        assert (COMMITTED / "features" / f"{key}.npz").exists(), key
    seen, hashed = [], []
    real = attack_mod.embeddings_key
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            attack_mod, "embeddings_key",
            lambda features, weights: seen.append(weights)
            or real(features, weights),
        )
        patch.setattr(
            attack_mod, "weights_digest",
            lambda state: hashed.append(1) or weights_digest(state),
        )
        for design in WARM_SERVICE[:2]:
            attack.select(get_split(design, layer))
    assert seen == [digest, digest]
    assert not hashed

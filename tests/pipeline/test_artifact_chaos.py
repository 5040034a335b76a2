"""Chaos tests for the artifact store's one corruption path.

A tiny DL pipeline (train on two designs, attack a third) first runs
clean and fills a cache.  Each case then damages one artifact of a copy
of that cache and reruns the pipeline from cold memos.  The damage must
be reported exactly once (one ``artifact_rebuilt`` log event naming the
kind, one count on ``repro_artifacts_rebuilt_total``), the file must be
rewritten so the next run reads it cleanly, and the CCR must equal the
clean run's.
"""

import io
import json
import shutil

import numpy as np
import pytest

from repro.core import AttackConfig
from repro.core.artifacts import artifact_store, features_key
from repro.obs import metrics
from repro.obs.logging import set_log_sink
from repro.pipeline import (
    attack_weight_path,
    clear_memo,
    get_split,
    trained_attack,
)

CONFIG = AttackConfig.tiny().with_(epochs=1)
TRAIN = ("tiny_a", "tiny_b")
TARGET = "tiny_seq"
LAYER = 3


def run_attack() -> float:
    attack = trained_attack(LAYER, CONFIG, TRAIN)
    return attack.evaluate(get_split(TARGET, LAYER))


@pytest.fixture(scope="module")
def clean_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean_cache")
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_CACHE_DIR", str(root))
    clear_memo()
    ccr = run_attack()
    clear_memo()
    patcher.undo()
    return root, ccr


@pytest.fixture()
def captured_log():
    sink = io.StringIO()
    set_log_sink(sink)
    yield sink
    set_log_sink(None)


def rebuilt_events(sink) -> list[dict]:
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    return [e for e in events if e["event"] == "artifact_rebuilt"]


def rebuilt_count(kind: str) -> float:
    return metrics.counter(
        "repro_artifacts_rebuilt_total", labels=("kind",)
    ).value_of(kind=kind)


# -- damage, one per case --------------------------------------------------


def layout_path():
    return artifact_store().path("layout", TARGET)


def weights_path():
    return attack_weight_path(CONFIG, LAYER, TRAIN)


def features_path():
    split = get_split(TARGET, LAYER)
    return artifact_store().path("features", features_key(split, CONFIG))


def embeddings_path():
    (path,) = (artifact_store().root / "features").glob("emb_*.npz")
    return path


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def drop_norm_std(path):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "__norm_std"}
    np.savez_compressed(path, **arrays)


def wrong_vec_shape(path):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["vec"] = arrays["vec"][:, :, :-1]
    np.savez_compressed(path, **arrays)


def garbage(path):
    path.write_bytes(b"not an npz file")


CASES = {
    "truncated-def": ("layout", layout_path, truncate),
    "truncated-weights": ("weights", weights_path, truncate),
    "weights-missing-norm-std": ("weights", weights_path, drop_norm_std),
    "features-wrong-vec-shape": (
        "features", features_path, wrong_vec_shape,
    ),
    "garbage-embeddings": ("embeddings", embeddings_path, garbage),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_corrupt_artifact_is_reported_and_rebuilt(
    case, clean_cache, tmp_path, monkeypatch, captured_log
):
    clean_root, clean_ccr = clean_cache
    root = tmp_path / "cache"
    shutil.copytree(clean_root, root)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    clear_memo()
    kind, locate, damage = CASES[case]
    path = locate()
    damage(path)
    damaged = path.read_bytes()
    clear_memo()
    before = rebuilt_count(kind)

    assert run_attack() == clean_ccr

    events = rebuilt_events(captured_log)
    assert [(e["kind"], e["path"]) for e in events] == [(kind, str(path))]
    assert events[0]["error"]
    assert rebuilt_count(kind) == before + 1
    assert path.read_bytes() != damaged

    # The rewritten file reads back cleanly.
    clear_memo()
    assert run_attack() == clean_ccr
    assert len(rebuilt_events(captured_log)) == 1
    clear_memo()

"""The in-process attack memo of ``trained_attack``.

One eval-mode attack per weight key, tagged with the weights file's
stat on the disk path: repeated calls share one load, a rewritten or
damaged file is reloaded through the store's normal validation, and
fresh copies of the cache replace the entry instead of adding one.
"""

import io
import json
import shutil
import threading

import numpy as np
import pytest

from repro.core import AttackConfig, DLAttack
from repro.core.atomic import atomic_savez
from repro.nn import Module
from repro.obs.logging import set_log_sink
from repro.pipeline import (
    attack_weight_path,
    clear_memo,
    get_split,
    trained_attack,
)
from repro.pipeline import flow

CONFIG = AttackConfig.tiny().with_(epochs=1)
TRAIN = ("tiny_a", "tiny_b")
TARGET = "tiny_seq"
LAYER = 3


@pytest.fixture(scope="module")
def trained_cache(tmp_path_factory):
    """A cache directory holding the tiny config's trained weights."""
    root = tmp_path_factory.mktemp("memo_cache")
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_CACHE_DIR", str(root))
    clear_memo()
    trained_attack(LAYER, CONFIG, TRAIN)
    clear_memo()
    patcher.undo()
    return root


@pytest.fixture()
def cache(trained_cache, tmp_path, monkeypatch):
    root = tmp_path / "cache"
    shutil.copytree(trained_cache, root)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    clear_memo()
    yield root
    clear_memo()


@pytest.fixture()
def load_calls(monkeypatch):
    calls = []
    real_load = DLAttack.load

    def counting_load(self, path):
        calls.append(path)
        return real_load(self, path)

    monkeypatch.setattr(DLAttack, "load", counting_load)
    return calls


def attack():
    return trained_attack(LAYER, CONFIG, TRAIN)


def in_eval_mode(module: Module) -> bool:
    """True when ``module`` and every sub-module are in eval mode."""
    children = [
        item
        for value in vars(module).values()
        for item in (value if isinstance(value, (list, tuple)) else [value])
        if isinstance(item, Module)
    ]
    return not module.training and all(in_eval_mode(c) for c in children)


def held_arrays(value, path: str = "model") -> list[str]:
    """Paths under ``value`` (a module, or a tuple/list in one) that
    hold an array; a ``Parameter`` is neither followed nor counted."""
    if isinstance(value, np.ndarray):
        return [path]
    if isinstance(value, Module):
        items = vars(value).items()
    elif isinstance(value, (list, tuple)):
        items = ((str(i), v) for i, v in enumerate(value))
    else:
        return []
    return [p for name, v in items for p in held_arrays(v, f"{path}.{name}")]


def test_two_calls_make_one_load(cache, load_calls):
    first, second = attack(), attack()
    assert first is second
    assert len(load_calls) == 1
    assert in_eval_mode(first.model)
    # A loaded attack still reports no training time.
    assert first.log.train_seconds == 0.0


def test_rewritten_weights_are_reloaded(cache, load_calls):
    old = attack()
    state = old.state_arrays()
    name = next(k for k in state if k.endswith(".weight"))
    state[name] = state[name] + np.float32(1.0)
    atomic_savez(attack_weight_path(CONFIG, LAYER, TRAIN), state)

    new = attack()
    assert new is not old
    assert len(load_calls) == 2
    np.testing.assert_array_equal(new.state_arrays()[name], state[name])
    assert in_eval_mode(new.model)
    assert attack() is new
    assert len(flow._attack_memo) == 1


def test_truncated_weights_after_memo_hit_rebuild_once(cache):
    sink = io.StringIO()
    set_log_sink(sink)
    try:
        attack()
        attack()  # memo hit
        path = attack_weight_path(CONFIG, LAYER, TRAIN)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        rebuilt = attack()
        assert rebuilt.log.train_seconds > 0
        assert not any(
            tag_attack[1] is rebuilt
            for tag_attack in flow._attack_memo.values()
        )
        attack()
        attack()
    finally:
        set_log_sink(None)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    rebuilt_events = [e for e in events if e["event"] == "artifact_rebuilt"]
    assert [(e["kind"], e["path"]) for e in rebuilt_events] == [
        ("weights", str(path))
    ]


def test_fresh_cache_copies_keep_one_entry_per_key(
    cache, tmp_path, monkeypatch, load_calls
):
    attacks = []
    for i in range(5):
        copy = tmp_path / f"copy{i}"
        shutil.copytree(cache, copy)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(copy))
        attacks.append(attack())
        assert len(flow._attack_memo) == 1
    assert len(load_calls) == 5
    assert len({id(a) for a in attacks}) == 5


def test_cache_disabled_memo_keeps_trained_attack(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    clear_memo()
    try:
        first = attack()
        assert attack() is first
        assert first.log.train_seconds > 0
        assert in_eval_mode(first.model)
        assert len(flow._attack_memo) == 1
    finally:
        clear_memo()


def test_concurrent_select_on_memoised_attack(cache):
    shared = attack()
    split = get_split(TARGET, LAYER)
    want = shared.select(split, use_disk_cache=False)
    barrier = threading.Barrier(2)
    results, errors = [], []

    def worker():
        try:
            barrier.wait()
            for _ in range(3):
                results.append(shared.select(split, use_disk_cache=False))
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 6
    assert all(r == want for r in results)
    assert in_eval_mode(shared.model)
    assert attack() is shared


def test_shared_attack_layers_hold_no_arrays_after_select(cache):
    """A shared eval-mode attack keeps no activations: the conv tower
    and fc layers store nothing that later callers could pin or
    overwrite."""
    shared = attack()
    shared.select(get_split(TARGET, LAYER), use_disk_cache=False)
    assert held_arrays(shared.model) == []

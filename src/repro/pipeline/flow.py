"""End-to-end flow orchestration with caching.

Building a layout (floorplan -> place -> route) and training the DL
attack are the expensive steps, and both are deterministic functions of
their inputs.  This module memoises them in memory and persists them
through the artifact store (:mod:`repro.core.artifacts`): layouts as
DEF-like text keyed by design and defense, trained attacks as npz
weights keyed by the model fields of the configuration, the split layer
and the training corpus.  The store also holds the feature tensors and
embeddings that :mod:`repro.core.dataset` and
:mod:`repro.core.attack` cache.

``REPRO_CACHE_DIR`` relocates the cache (default ``.repro_cache`` in the
working directory); the empty string disables it.  The disk cache is
also the coordination medium of the multi-process executor
(:mod:`repro.pipeline.parallel`): worker processes share layouts,
weights and feature tensors purely through these files, so parallel
runs need it enabled.  Worker count comes from the ``workers=``
parameters or the ``REPRO_WORKERS`` environment variable.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from ..core.artifacts import (
    artifact_store,
    layout_fingerprint,
    layout_key,
    weights_key,
)
from ..core.attack import DLAttack
from ..core.config import AttackConfig
from ..layout.def_io import read_def, write_def
from ..layout.design import Design, build_layout
from ..netlist.benchmarks import (
    TABLE3_BY_NAME,
    TINY_DESIGNS,
    TRAINING_DESIGNS,
    VALIDATION_DESIGNS,
    build_benchmark,
    build_suite_design,
)
from ..netlist.netlist import Netlist
from ..split.split import SplitLayout, split_design

_SUITE_BY_NAME = {
    d.name: d for d in TRAINING_DESIGNS + VALIDATION_DESIGNS + TINY_DESIGNS
}

_layout_memo: dict[str, Design] = {}
_split_memo: dict[tuple[str, int], SplitLayout] = {}
# Eval-mode attacks, one per weight key, each tagged with the
# ``(st_mtime_ns, st_size, st_ino)`` of the weights file it was loaded
# from, or None when trained with the disk cache disabled.  One entry
# per key bounds the memo: a cache directory copied afresh (new inodes)
# replaces the entry instead of adding one.  Fitted random forests,
# which have no weights file, sit here too under an ``("rf", layer,
# corpus)`` key, tagged None (:func:`trained_random_forest`); the value
# is typed ``Any`` because pipeline may not import attacks at module
# level, not even for a type.
_attack_memo: dict[
    str | tuple, tuple[tuple[int, int, int] | None, DLAttack | Any]
] = {}


def clear_memo() -> None:
    """Drop in-memory memoisation (tests use this for isolation)."""
    _layout_memo.clear()
    _split_memo.clear()
    _attack_memo.clear()


def build_netlist(name: str) -> Netlist:
    """Build any named design: Table 3 benchmark or suite design."""
    if name in TABLE3_BY_NAME:
        return build_benchmark(name)
    if name in _SUITE_BY_NAME:
        return build_suite_design(_SUITE_BY_NAME[name])
    raise KeyError(f"unknown design {name!r}")


def get_split(name: str, split_layer: int) -> SplitLayout:
    return get_defended_split(name, split_layer)


def get_defended_layout(
    name: str,
    kind: str = "none",
    strength: float = 0.0,
    seed: int = 0,
) -> Design:
    """Place-and-route a possibly-defended design, with memo + disk cache.

    Layouts are deterministic functions of (design, defense kind,
    strength, seed), so every attack evaluated on the same layout —
    across scenarios and worker processes — reuses one place-and-route.
    """
    key = layout_key(name, kind, strength, seed)
    memo = _layout_memo.get(key)
    if memo is not None:
        return memo
    netlist = build_netlist(name)

    def place_and_route() -> Design:
        if kind == "none":
            return build_layout(netlist)
        # Imported lazily: repro.defense.evaluation imports this module,
        # so a top-level import would be circular.
        from ..defense.lifting import lifted_layout
        from ..defense.perturbation import perturbed_layout

        if kind == "perturb":
            return perturbed_layout(netlist, strength=strength, seed=seed)
        if kind == "lift":
            return lifted_layout(netlist, lift_fraction=strength, seed=seed)
        raise ValueError(f"unknown defense kind {kind!r}")

    def load(path: Path) -> tuple[Design, str]:
        text = path.read_text()
        return read_def(text, netlist), text

    def build() -> tuple[Design, str]:
        design = place_and_route()
        return design, write_def(design)

    design, text = artifact_store().fetch(
        "layout", key, load, build, lambda built: built[1]
    )
    # Key the layout's artifacts by the text the store holds: no second
    # serialisation.
    layout_fingerprint(design, text)
    _layout_memo[key] = design
    return design


def get_defended_split(
    name: str,
    split_layer: int,
    kind: str = "none",
    strength: float = 0.0,
    seed: int = 0,
) -> SplitLayout:
    key = (layout_key(name, kind, strength, seed), split_layer)
    if key not in _split_memo:
        _split_memo[key] = split_design(
            get_defended_layout(name, kind, strength, seed), split_layer
        )
    return _split_memo[key]


def default_train_names() -> tuple[str, ...]:
    """The paper's 9-design training corpus."""
    return tuple(d.name for d in TRAINING_DESIGNS)


def attack_weight_path(
    config: AttackConfig,
    split_layer: int,
    train_names: tuple[str, ...] | None = None,
) -> Path | None:
    """Disk-cache location of a trained attack's weights (None when the
    disk cache is disabled)."""
    if train_names is None:
        train_names = default_train_names()
    return artifact_store().path(
        "weights", weights_key(config, split_layer, train_names)
    )


def trained_attack(
    split_layer: int,
    config: AttackConfig | None = None,
    train_names: tuple[str, ...] | None = None,
    verbose: bool = False,
) -> DLAttack:
    """Train (or load) the DL attack for one split layer.

    Default training corpus: the 9 training designs, mirroring the
    paper's setup.

    The returned attack is shared: every call with the same weight key
    gets the same eval-mode object for as long as its weights file is
    unchanged (with the disk cache disabled, for the life of the
    process).  Callers may run inference on it from any thread, but must
    not train it, switch its mode or otherwise mutate it.
    """
    config = config or AttackConfig.fast()
    if train_names is None:
        train_names = default_train_names()
    key = weights_key(config, split_layer, train_names)
    store = artifact_store()
    if store.root is None:
        # No disk cache: share the trained model in-process so a sweep's
        # evaluation nodes (which run serially in this situation) train
        # once per (layer, config) rather than once per scenario.
        tag, memo = _attack_memo.get(key, (None, None))
        if memo is not None and tag is None:
            return memo

    def load(path: Path) -> DLAttack:
        stat = path.stat()
        tag = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
        memo_tag, memo = _attack_memo.get(key, (None, None))
        if memo is not None and memo_tag == tag:
            return memo
        # Drop a stale entry before loading, so a corrupt file does not
        # leave the old model pinned while the store rebuilds it.
        _attack_memo.pop(key, None)
        attack = DLAttack(config, split_layer)
        attack.load(path)
        attack.share()
        _attack_memo[key] = (tag, attack)
        return attack

    def build() -> DLAttack:
        # A fresh model: a failed load may have half-filled another.
        attack = DLAttack(config, split_layer)
        splits = [get_split(n, split_layer) for n in train_names]
        attack.train(splits, verbose=verbose)
        attack.share()
        return attack

    attack = store.fetch("weights", key, load, build, DLAttack.state_arrays)
    # With a disk cache only loads are memoised: the call after a build
    # loads the file just written, so its record reports no training
    # time, as it would in a fresh process.
    if store.root is None:
        _attack_memo[key] = (None, attack)
    return attack


def trained_random_forest(
    split_layer: int, train_names: tuple[str, ...] | None = None
) -> tuple[Any, float | None]:
    """Train the [9]-style random forest for one split layer, once per
    process.

    Returns ``(attack, train_seconds)``: a fitted
    :class:`~repro.attacks.random_forest.RandomForestAttack`, and the
    seconds its fit took, or None when it came from the memo.  The
    forest keeps its default parameters, so training depends only on
    the split layer and the corpus, and every rf scenario of a grid
    shares one fit; the candidate-list threshold is a per-call argument
    of :meth:`RandomForestAttack.candidate_lists`.  The returned attack
    is shared: do not retrain it.
    """
    # Imported here: the package layering keeps attacks out of
    # pipeline's module-level imports.
    from ..attacks.random_forest import RandomForestAttack

    if train_names is None:
        train_names = default_train_names()
    key = ("rf", split_layer, tuple(train_names))
    _, memo = _attack_memo.get(key, (None, None))
    if memo is not None:
        return memo, None
    attack = RandomForestAttack()
    started = time.perf_counter()
    attack.train([get_split(n, split_layer) for n in train_names])
    train_seconds = time.perf_counter() - started
    _attack_memo[key] = (None, attack)
    return attack, train_seconds

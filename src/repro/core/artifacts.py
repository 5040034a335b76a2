"""The artifact store: one cache root, one key scheme, one corruption path.

The attack is affordable on one CPU because its expensive steps are
cached on disk: place-and-route (layout ``.def`` text), training
(weights ``.npz``), feature extraction (feature-tensor ``.npz``) and
the conv tower over a dataset's unique images (embedding ``.npz``).
Every one of them goes through :class:`ArtifactStore`:

* **root** — ``$REPRO_CACHE_DIR`` (default ``.repro_cache``), read in
  :func:`cache_root` and nowhere else; the empty string disables the
  disk cache.  Layouts and weights live at the root, feature tensors
  and embeddings under ``features/``.
* **keys** — :func:`artifact_key` is the one hash.  The per-kind helpers
  below build its payloads from the fields :class:`AttackConfig`
  declares with a ``model`` or ``features`` role, so a field added with
  the ``execution`` role never rotates a key.  A key is the file stem.
* **writes** — atomic, through :mod:`repro.core.atomic`, so concurrent
  executor workers racing on one key never expose a torn file.
* **reads** — validated by the caller's loader.  A file that fails to
  load with one of :data:`CORRUPT_ERRORS` is reported once as an
  ``artifact_rebuilt`` log event, counted in
  ``repro_artifacts_rebuilt_total{kind}``, and rebuilt over.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
import zlib
from dataclasses import fields
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from ..layout.def_io import DefFormatError, write_def
from ..layout.design import Design
from ..split.split import SplitLayout
from .atomic import atomic_savez, atomic_write_text
from .config import AttackConfig

T = TypeVar("T")

#: kind -> (sub-directory of the root, file suffix)
KINDS = {
    "layout": ("", ".def"),
    "weights": ("", ".npz"),
    "features": ("features", ".npz"),
    "embeddings": ("features", ".npz"),
}

#: What a damaged artifact raises, measured on truncated, bit-flipped,
#: garbage and incomplete copies of committed files: ``DefFormatError``
#: (truncated ``.def``), ``BadZipFile`` / ``zlib.error`` (truncated or
#: flipped ``.npz``), ``EOFError`` (empty ``.npz``), ``ValueError``
#: (garbage bytes, undecodable text, a loader's shape check) and
#: ``KeyError`` (an ``.npz`` missing an array).  Anything else is a bug
#: and propagates.
CORRUPT_ERRORS = (
    DefFormatError,
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    ValueError,
    KeyError,
    OSError,
)

# Bumped when the feature-tensor file layout changes.
_FEATURES_VERSION = 1


def cache_root() -> Path | None:
    """The artifact cache root, or None when the disk cache is disabled."""
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return Path(root) if root else None


# -- keys -----------------------------------------------------------------


def _plain(value):
    """Canonical form for hashing: numpy scalars become Python scalars
    (numpy 2 ``repr``s them as ``np.float64(...)``), recursively."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(v) for v in value)
    return value


def artifact_key(*parts, digits: int = 16) -> str:
    """The one artifact hash: sha256 over ``parts`` in order, each fed as
    raw bytes if it is ``bytes`` and as the ``repr`` of its canonical
    form otherwise; truncated to ``digits`` hex characters."""
    digest = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            part = repr(_plain(part)).encode()  # repro: ignore[hash-determinism] keys name the committed .repro_cache files
        digest.update(part)
    return digest.hexdigest()[:digits]


def _role_values(config: AttackConfig, *roles: str) -> list[tuple]:
    return [
        (f.name, getattr(config, f.name))
        for f in fields(config)
        if f.metadata["role"] in roles
    ]


def layout_key(
    name: str, kind: str = "none", strength: float = 0.0, seed: int = 0
) -> str:
    """Key of a (possibly defended) layout build; the design name when
    undefended."""
    if kind == "none":
        return name
    return f"{name}__{kind}_{strength:g}_s{seed}"


def weights_key(
    config: AttackConfig, split_layer: int, train_names: tuple[str, ...]
) -> str:
    """Key of trained weights: every model and feature field, the split
    layer and the training corpus."""
    payload = (
        sorted(_role_values(config, "model", "features")),
        split_layer,
        tuple(train_names),
    )
    return f"dl_attack_m{split_layer}_{artifact_key(payload)}"


def feature_config_fingerprint(config: AttackConfig) -> str:
    """Hash of the feature fields alone.

    Layout-independent, so the sweep engine can key feature warm-up
    nodes before any layout exists: configs differing only in model or
    execution fields share one fingerprint and one feature-tensor file.
    """
    return artifact_key(
        tuple(v for _, v in _role_values(config, "features"))
    )


def layout_fingerprint(design: Design, def_text: str | None = None) -> str:
    """Content hash of the serialised layout, memoised on the design.

    ``def_text`` is the design's DEF text where the caller holds it (the
    layout store has just read or written it): the hash is then of that
    text and the design is not serialised again.  A file that parses to
    the same design but is not written as :func:`write_def` writes it
    keys its own artifacts, so it can miss the cache but never hit one
    built from other text.
    """
    if def_text is None:
        cached = getattr(design, "_repro_def_sha", None)
        if cached is not None:
            return cached
        def_text = write_def(design)
    digest = artifact_key(def_text.encode(), digits=64)
    try:
        design._repro_def_sha = digest
    except AttributeError:  # __slots__ or frozen: recompute next time
        pass
    return digest


def features_key(split: SplitLayout, config: AttackConfig) -> str:
    """Key of one (layout, split layer, feature fields) tensor set."""
    payload = (
        _FEATURES_VERSION,
        layout_fingerprint(split.design),
        split.split_layer,
        *(v for _, v in _role_values(config, "features")),
    )
    return artifact_key(payload, digits=24)


def weights_digest(state: dict[str, np.ndarray]) -> str:
    """Hash of one parameter state.

    Each parameter contributes its name, shape and dtype as well as its
    bytes: raw bytes alone would let two distinct states (same bytes,
    different shape or dtype) collide.
    """
    parts = []
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        parts += [name.encode(), (arr.shape, arr.dtype.str), arr.tobytes()]
    return artifact_key(*parts)


def embeddings_key(features: str, weights: str) -> str:
    """Key of the conv-tower embeddings of one feature set's unique
    images under the parameter state whose :func:`weights_digest` is
    ``weights``."""
    return f"emb_{features}_{weights}"


# -- the store ------------------------------------------------------------


class ArtifactStore:
    """Keyed, validated, atomically written artifacts under one root
    (``root=None``: a disabled store that misses every read and drops
    every write)."""

    def __init__(self, root: Path | None):
        self.root = root

    def path(self, kind: str, key: str) -> Path | None:
        if self.root is None:
            return None
        subdir, suffix = KINDS[kind]
        return self.root / subdir / f"{key}{suffix}"

    def exists(self, kind: str, key: str) -> bool:
        path = self.path(kind, key)
        return path is not None and path.exists()

    def read(self, kind: str, key: str, load: Callable[[Path], T]) -> T | None:
        """``load(path)``, or None on a miss or a corrupt artifact.

        ``load`` must return a non-None value and raise one of
        :data:`CORRUPT_ERRORS` on a bad file.
        """
        path = self.path(kind, key)
        if path is None or not path.exists():
            return None
        try:
            return load(path)
        except CORRUPT_ERRORS as err:
            # Lazy: obs sits above core in the package layering.
            from ..obs import metrics
            from ..obs.logging import log_event

            log_event(
                "artifact_rebuilt", kind=kind, path=str(path),
                error=repr(err),
            )
            metrics.counter(
                "repro_artifacts_rebuilt_total",
                "Cached artifacts found unreadable or invalid and rebuilt",
                labels=("kind",),
            ).labels(kind=kind).inc()
            return None

    def write(
        self, kind: str, key: str, payload: str | dict[str, np.ndarray]
    ) -> None:
        """Atomically store text (``.def``) or named arrays (``.npz``)."""
        path = self.path(kind, key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(payload, str):
            atomic_write_text(path, payload)
        else:
            atomic_savez(path, payload)

    def fetch(
        self,
        kind: str,
        key: str,
        load: Callable[[Path], T],
        build: Callable[[], T],
        encode: Callable[[T], str | dict[str, np.ndarray]],
    ) -> T:
        """Read the artifact, or build it and write ``encode(value)``."""
        value = self.read(kind, key, load)
        if value is None:
            value = build()
            self.write(kind, key, encode(value))
        return value


def artifact_store(enabled: bool = True) -> ArtifactStore:
    """The store at :func:`cache_root` (disabled when ``enabled`` is
    false or the root is unset)."""
    return ArtifactStore(cache_root() if enabled else None)

"""Atomic file writes.

Every artifact in the store (:mod:`repro.core.artifacts`: layout DEF
text, trained weights, feature tensors, embedding tables) may be
written concurrently by executor workers racing on the same key.
Writing to a temp file in the target directory and ``os.replace``-ing
it onto the final name keeps readers from ever observing a torn file;
the last writer simply wins.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np


def _atomic_write(path: Path, mode: str, write: Callable) -> None:
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            write(handle)
        os.replace(tmp_name, path)
    except Exception:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Atomically write ``text`` to ``path``."""
    _atomic_write(path, "w", lambda handle: handle.write(text))


def atomic_savez(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Atomically write a compressed npz of ``arrays`` to ``path``."""
    _atomic_write(
        path, "wb", lambda handle: np.savez_compressed(handle, **arrays)
    )


def atomic_write_json(path: Path, payload) -> None:
    """Atomically write ``payload`` as indented JSON to ``path``."""
    import json

    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def atomic_append_line(path: Path, line: str) -> None:
    """Append one line to ``path`` with a single ``O_APPEND`` write.

    Append-only logs (the experiments results store) cannot use the
    temp-file + ``os.replace`` scheme — concurrent appenders would
    clobber each other's lines — so they rely on the POSIX guarantee
    that a single ``write(2)`` on an ``O_APPEND`` descriptor positions
    and writes atomically: concurrent appenders interleave whole lines,
    never characters.
    """
    if not line.endswith("\n"):
        line += "\n"
    payload = line.encode("utf-8")
    fd = os.open(
        path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    try:
        written = os.write(fd, payload)
        # A short write (ENOSPC, RLIMIT_FSIZE) would leave a torn line
        # that the next append glues onto; surface it instead.
        if written != len(payload):
            raise OSError(
                f"short append to {path}: {written}/{len(payload)} bytes"
            )
    finally:
        os.close(fd)

"""Storage backend for the results store.

:class:`~repro.experiments.store.ResultsStore` delegates persistence to
a :class:`StorageBackend`; the append-only JSONL journal
(:class:`JsonlStorageBackend`) is the one implementation.
"""

from __future__ import annotations

from .base import ORDERS, StorageBackend
from .jsonl import JsonlStorageBackend

__all__ = [
    "JsonlStorageBackend",
    "ORDERS",
    "StorageBackend",
]

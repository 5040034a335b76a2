"""Shared fixtures for the benchmark suite.

The expensive artifacts (placed-and-routed layouts, trained attack
models) are produced once and cached in ``.repro_cache`` — the same
cache the experiment scripts use, so a prior
``python scripts/run_full_experiments.py`` makes the benchmarks start
warm.  Reports regenerated here are written to ``results/``.

The whole tier carries the ``slow`` pytest marker (deselect with
``-m "not slow"``).  Each paper artifact is a registry grid run
through :func:`paper_report` (``Client.run(grid, params).report()``
on the local backend), which honours ``REPRO_WORKERS`` for
multi-process fan-out on multi-core hosts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import Client
from repro.core import AttackConfig
from repro.core.atomic import atomic_write_text
from repro.pipeline import get_split, trained_attack

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def save_report(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    atomic_write_text(RESULTS_DIR / name, text + "\n")


def paper_report(grid: str, **params):
    """Run a registry grid without recording to the results store and
    return its report."""
    with Client(store=False) as client:
        return client.run(grid, params).report()


@pytest.fixture(scope="session")
def bench_config() -> AttackConfig:
    return AttackConfig.benchmark()


@pytest.fixture(scope="session")
def dl_attack_m1(bench_config):
    """The trained M1 attack (cached on disk after the first build)."""
    return trained_attack(1, bench_config)


@pytest.fixture(scope="session")
def dl_attack_m3(bench_config):
    return trained_attack(3, bench_config)


@pytest.fixture(scope="session")
def split_of():
    """Accessor for cached split layouts: split_of(name, layer)."""
    return get_split

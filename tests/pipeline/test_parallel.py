"""Multi-process executor: worker resolution, fan-out, and the
serial-vs-parallel parity guarantee on the tiny designs."""

import numpy as np
import pytest

from repro.core import AttackConfig
from repro.eval import run_table3
from repro.pipeline import Executor, clear_memo, resolve_workers
from repro.pipeline.parallel import _square_probe


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    clear_memo()
    yield
    clear_memo()


class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers(None) == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)


class TestExecutorMap:
    def test_serial_path(self):
        with Executor() as executor:
            assert executor.map(
                _square_probe, [(i,) for i in range(5)]
            ) == [0, 1, 4, 9, 16]

    def test_parallel_preserves_order(self):
        jobs = [(i,) for i in range(8)]
        with Executor(4) as executor:
            assert executor.map(_square_probe, jobs) == [
                i * i for i in range(8)
            ]

    def test_progress_callback(self):
        seen = []
        with Executor(2) as executor:
            executor.map(
                _square_probe, [(1,), (2,)], progress=seen.append
            )
        assert len(seen) == 2

    def test_empty_jobs(self):
        with Executor(4) as executor:
            assert executor.map(_square_probe, []) == []


class TestSerialParallelParity:
    """Table 3 CCRs must not depend on the execution strategy."""

    def test_tiny_table3_identical(self):
        config = AttackConfig.tiny().with_(epochs=2)
        kwargs = dict(
            designs=["tiny_a", "tiny_seq"],
            split_layers=(3,),
            config=config,
            train_names=("tiny_a", "tiny_b"),
            flow_timeout_s=60.0,
        )
        serial = run_table3(workers=1, **kwargs)
        clear_memo()
        parallel = run_table3(workers=2, **kwargs)
        assert len(serial.rows) == len(parallel.rows) == 2
        for s, p in zip(serial.rows, parallel.rows):
            assert s.design == p.design
            assert s.split_layer == p.split_layer
            assert s.ccr_dl == p.ccr_dl
            assert s.ccr_flow == p.ccr_flow
            assert s.n_sink_fragments == p.n_sink_fragments
            assert s.n_source_fragments == p.n_source_fragments

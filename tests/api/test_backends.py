"""Backend parity: local and service yield identical records.

The golden two-scenario sweep (proximity on the committed warm c432 and
c880 layouts, M3) runs through each backend of :class:`repro.api.Client`
into its own fresh results store, and the resulting
:class:`ScenarioRecord` payloads are hash-compared after stripping the
wall-clock-dependent fields (runtimes and telemetry) — everything a
caller acts on must be bit-identical regardless of how the job was
executed.  This test also drives ``Client(backend="service")`` fully
end-to-end (spawned service, HTTP submit, SSE stream) and is the CI
smoke step for the service; it must finish in well under 10 s.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.api import Client
from repro.pipeline import clear_memo

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
WARM_CACHE = REPO_ROOT / ".repro_cache"
GOLDEN_PATH = REPO_ROOT / "tests" / "experiments" / "golden_sweep.json"

GOLDEN_SPECS = [
    {"design": "c432", "split_layer": 3, "attack": "proximity",
     "tags": ["golden"]},
    {"design": "c880", "split_layer": 3, "attack": "proximity",
     "tags": ["golden"]},
]

BACKENDS = ("local", "service")


@pytest.fixture()
def warm_cache(monkeypatch, tmp_path):
    for design in ("c432", "c880"):
        if not (WARM_CACHE / f"{design}.def").exists():
            pytest.skip("committed warm cache not present")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(WARM_CACHE))
    clear_memo()
    yield tmp_path
    clear_memo()


def canonical_payload(record_dict: dict) -> dict:
    """A record's deterministic content: drop wall-clock-only fields."""
    payload = dict(record_dict)
    payload.pop("runtime_s", None)
    payload.pop("train_seconds", None)
    extra = dict(payload.get("extra") or {})
    extra.pop("telemetry", None)  # node seconds / job ids differ by run
    payload["extra"] = extra
    return payload


def result_hash(result) -> str:
    canonical = json.dumps(
        [canonical_payload(r.to_dict()) for r in result.records],
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_backend(backend: str, results_dir: Path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(results_dir))
    events = []
    with Client(
        backend=backend,
        store=results_dir / "experiments.jsonl",
        queue_path=results_dir / "queue.jsonl",
        on_event=events.append,
    ) as client:
        result = client.run(GOLDEN_SPECS, timeout=30.0)
    return result, events


def test_backend_parity_on_golden_sweep(warm_cache, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())
    started = time.monotonic()
    hashes, results = {}, {}
    for backend in BACKENDS:
        result, events = run_backend(
            backend, warm_cache / backend, monkeypatch
        )
        assert [r.status for r in result.records] == ["ok", "ok"]
        # Every backend reproduces the committed goldens bit-for-bit...
        for spec, record in zip(result.specs, result.records):
            assert spec.scenario_hash in golden
            assert record.ccr == golden[spec.scenario_hash]["ccr"]
            assert record.scenario["design"] == \
                golden[spec.scenario_hash]["design"]
        # ... and streams events through the one on_event interface.
        kinds = {event.kind for event in events}
        assert "submitted" in kinds
        assert "done" in kinds
        if backend == "service":
            # Remote events carry the server-assigned job id so a
            # multiplexed handler can tell concurrent jobs apart.
            assert all(
                event.job_id is not None
                for event in events
                if event.kind in ("progress", "done")
            )
        hashes[backend] = result_hash(result)
        results[backend] = result
    # The acceptance bar: identical payloads across both backends.
    assert len(set(hashes.values())) == 1, hashes
    assert time.monotonic() - started < 10.0
    # The service job id travelled onto the result set.
    assert results["service"].job_id is not None
    assert results["local"].job_id is None


def test_service_backend_resubmission_answers_from_store(
    warm_cache, monkeypatch
):
    results_dir = warm_cache / "svc"
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(results_dir))
    with Client(
        backend="service",
        store=results_dir / "experiments.jsonl",
        queue_path=results_dir / "queue.jsonl",
    ) as client:
        first = client.submit(GOLDEN_SPECS)
        first.wait(timeout=30.0)
        assert first.outcome == "queued"
        again = client.submit(GOLDEN_SPECS)
        assert again.outcome == "from_store"
        result = again.wait(timeout=30.0)
        assert len(result.records) == 2


def _cut_stream(self, job_id, timeout=None):
    raise ConnectionResetError("stream cut")
    yield  # a generator, like the real events()


def _short_stream(self, job_id, timeout=None):
    yield {"kind": "submitted", "job_id": job_id, "data": {}}


@pytest.mark.parametrize(
    "events, logged",
    [(_cut_stream, ["event_stream_error"]), (_short_stream, [])],
    ids=["broken", "ended-early"],
)
def test_service_backend_stream_failure_raises(
    warm_cache, monkeypatch, events, logged
):
    """SSE is the only transport: a stream that breaks or ends before
    the terminal event raises instead of degrading to polling."""
    from repro.api import BackendError
    from repro.api import backends as backends_mod
    from repro.service.client import ServiceClient

    seen = []
    monkeypatch.setattr(
        backends_mod, "log_event", lambda name, **fields: seen.append(name)
    )
    monkeypatch.setattr(ServiceClient, "events", events)
    results_dir = warm_cache / "svc"
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(results_dir))
    with Client(
        backend="service",
        store=results_dir / "experiments.jsonl",
        queue_path=results_dir / "queue.jsonl",
    ) as client:
        job = client.submit(GOLDEN_SPECS)
        with pytest.raises(BackendError, match="event stream"):
            job.wait(timeout=30.0)
    assert seen == logged

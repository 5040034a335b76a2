"""End-to-end HTTP service tests.

The golden test is the service acceptance bar and the CI smoke test:
start the server on an ephemeral port against the committed warm
``.repro_cache``, submit the golden two-scenario sweep over HTTP,
follow its event stream, and compare against ``tests/experiments/golden_sweep.json``
bit-for-bit; a resubmission must be answered from the store without
scheduling any DAG node.  Runs serially in well under 10 seconds.
"""

import json
import time
from pathlib import Path

import pytest

from repro.experiments import ResultsStore, ScenarioSpec
from repro.pipeline import clear_memo
from repro.service import AttackService, ServiceClient
from repro.service.client import ServiceClientError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
WARM_CACHE = REPO_ROOT / ".repro_cache"
GOLDEN_PATH = REPO_ROOT / "tests" / "experiments" / "golden_sweep.json"

GOLDEN_SPECS = [
    {"design": "c432", "split_layer": 3, "attack": "proximity",
     "tags": ["golden"]},
    {"design": "c880", "split_layer": 3, "attack": "proximity",
     "tags": ["golden"]},
]


@pytest.fixture()
def service(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    clear_memo()
    svc = AttackService(
        store=ResultsStore(tmp_path / "experiments.jsonl"),
        queue_path=tmp_path / "queue.jsonl",
    )
    svc.scheduler.poll_interval = 0.01
    svc.start()
    yield svc
    svc.stop()
    clear_memo()


@pytest.fixture()
def warm_service(monkeypatch, tmp_path):
    for design in ("c432", "c880"):
        if not (WARM_CACHE / f"{design}.def").exists():
            pytest.skip("committed warm cache not present")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(WARM_CACHE))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    clear_memo()
    svc = AttackService(
        store=ResultsStore(tmp_path / "experiments.jsonl"),
        queue_path=tmp_path / "queue.jsonl",
    )
    svc.scheduler.poll_interval = 0.01
    svc.start()
    yield svc
    svc.stop()
    clear_memo()


def test_golden_sweep_over_http(warm_service):
    """The end-to-end acceptance criterion (and the CI smoke test)."""
    golden = json.loads(GOLDEN_PATH.read_text())
    client = ServiceClient(warm_service.url, timeout=10.0)
    started = time.monotonic()

    out = client.submit(specs=GOLDEN_SPECS)
    assert out["outcome"] == "queued"
    view = client.wait(out["job"]["job_id"], timeout=10.0)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"golden sweep took {elapsed:.1f}s"
    assert view["status"] == "done"

    by_hash = {r["scenario_hash"]: r for r in view["records"]}
    specs = [ScenarioSpec.from_dict(s) for s in GOLDEN_SPECS]
    assert [s.scenario_hash for s in specs] == list(golden)
    for spec in specs:
        record = by_hash[spec.scenario_hash]
        expected = golden[spec.scenario_hash]
        assert record["status"] == "ok"
        assert record["scenario"]["design"] == expected["design"]
        assert record["ccr"] == expected["ccr"]  # bit-for-bit
        assert record["n_sink_fragments"] == expected["n_sink_fragments"]
        assert record["n_source_fragments"] == expected["n_source_fragments"]
        assert record["hidden_pins"] == expected["hidden_pins"]
        assert record["wirelength"] == expected["wirelength"]

    # Resubmission: answered from the store, no DAG node scheduled.
    executed = warm_service.scheduler.nodes_executed
    again = client.submit(specs=GOLDEN_SPECS)
    assert again["outcome"] == "from_store"
    assert again["job"]["status"] == "done"
    assert again["job"]["nodes_total"] == 0
    assert warm_service.scheduler.nodes_executed == executed

    # The store view over HTTP agrees with the sweep's records.
    results = client.results(tag="golden")
    assert {r["scenario_hash"] for r in results} == set(golden)


def test_submit_grid_by_name(service):
    client = ServiceClient(service.url, timeout=10.0)
    out = client.submit(
        grid="defense-sweep",
        params={
            "design": "tiny_a", "perturbations": [4.0],
            "lift_fractions": [], "with_flow": False,
        },
    )
    assert out["outcome"] == "queued"
    view = client.wait(out["job"]["job_id"], timeout=60.0)
    assert view["status"] == "done"
    assert view["n_scenarios"] == 2  # baseline + one perturbation
    assert len(view["records"]) == 2
    assert all(r["status"] == "ok" for r in view["records"])


def test_duplicate_inflight_submission_joins_job(service):
    client = ServiceClient(service.url, timeout=10.0)
    payload = [{"design": "tiny_seq", "split_layer": 3,
                "attack": "proximity"}]
    first = client.submit(specs=payload)
    second = client.submit(specs=payload)
    if second["outcome"] == "duplicate":  # first still in flight
        assert second["job"]["job_id"] == first["job"]["job_id"]
    else:  # first finished before the resubmit raced it
        assert second["outcome"] == "from_store"
    client.wait(first["job"]["job_id"], timeout=60.0)


def test_cancel_over_http(monkeypatch, tmp_path):
    # HTTP thread only — no scheduler — so the submitted job stays
    # queued and the DELETE lands deterministically before any
    # dispatch could happen.
    import threading

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    svc = AttackService(
        store=ResultsStore(tmp_path / "experiments.jsonl"),
        queue_path=tmp_path / "queue.jsonl",
    )
    http_thread = threading.Thread(
        target=svc.httpd.serve_forever, daemon=True
    )
    http_thread.start()
    try:
        client = ServiceClient(svc.url, timeout=10.0)
        out = client.submit(specs=[
            {"design": "tiny_a", "split_layer": 3, "attack": "proximity"},
        ])
        job_id = out["job"]["job_id"]
        cancelled = client.cancel(job_id)
        assert cancelled["outcome"] == "cancelled"
        assert cancelled["job"]["status"] == "cancelled"
        # Terminal: the event stream ends at once and a second
        # DELETE is a no-op.
        view = client.wait(job_id, timeout=5.0)
        assert view["status"] == "cancelled"
        assert client.cancel(job_id)["outcome"] == "noop"
        with pytest.raises(ServiceClientError) as err:
            client.cancel("job-nope")
        assert err.value.status == 404
    finally:
        svc.httpd.shutdown()
        svc.httpd.server_close()
        http_thread.join(5.0)


def test_startup_compaction_bounds_the_journal(monkeypatch, tmp_path):
    from repro.service import JobQueue

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    queue_path = tmp_path / "queue.jsonl"
    queue = JobQueue(queue_path)
    spec = {"design": "tiny_a", "split_layer": 3, "attack": "proximity"}
    job, _ = queue.submit([ScenarioSpec.from_dict(spec)])
    queue.claim()
    queue.complete(job.job_id)
    assert len(queue_path.read_text().splitlines()) == 3

    # A service started with compact_ttl_s=0.0 (repro serve --compact)
    # drops every terminal job from the journal before serving.
    svc = AttackService(
        store=ResultsStore(tmp_path / "experiments.jsonl"),
        queue_path=queue_path,
        compact_ttl_s=0.0,
    )
    try:
        assert svc.compacted_jobs == 1
        assert queue_path.read_text() == ""
        assert svc.queue.jobs() == []
    finally:
        svc.scheduler.executor.close()
        svc.httpd.server_close()


def test_http_error_paths(service):
    client = ServiceClient(service.url, timeout=10.0)
    with pytest.raises(ServiceClientError) as err:
        client.job("job-nope")
    assert err.value.status == 404
    with pytest.raises(ServiceClientError) as err:
        client.submit(grid="no-such-grid")
    assert err.value.status == 400
    with pytest.raises(ServiceClientError) as err:
        client._request("POST", "/jobs", {"priority": 1})
    assert err.value.status == 400
    # Malformed client numbers are 400s, never internal 500s.
    with pytest.raises(ServiceClientError) as err:
        client._request("GET", "/results?split_layer=abc")
    assert err.value.status == 400
    with pytest.raises(ServiceClientError) as err:
        client._request(
            "POST", "/jobs",
            {"specs": [{"design": "tiny_a"}], "priority": "high"},
        )
    assert err.value.status == 400
    health = client.health()
    assert health["ok"] is True


def test_removed_wait_parameter_is_rejected(service):
    """An old long-poll client must fail loudly, not spin on instant
    status replies: ``GET /jobs/<id>?wait=`` is a 400 that names the
    event stream to use instead."""
    client = ServiceClient(service.url, timeout=10.0)
    out = client.submit(specs=[
        {"design": "tiny_a", "split_layer": 3, "attack": "proximity"},
    ])
    job_id = out["job"]["job_id"]
    with pytest.raises(ServiceClientError) as err:
        client._request("GET", f"/jobs/{job_id}?wait=30")
    assert err.value.status == 400
    assert f"/jobs/{job_id}/events" in str(err.value)
    # The plain status read still answers.
    assert client.wait(job_id, timeout=30.0)["status"] == "done"

"""SSE event streaming and paginated /results over live HTTP.

The streaming acceptance bar: an SSE client consuming
``GET /jobs/<id>/events`` observes every event kind of a live job —
``submitted``, ``node``, ``progress`` and exactly one terminal event —
pushed as the scheduler works, with no client-side polling loop.  The
pagination bar: ``GET /results`` answers with ``records`` + ``total``
and honours ``limit``/``offset``/``order`` (applied by the results
store).
"""

import threading
import time

import pytest

from repro.experiments import ResultsStore, ScenarioSpec
from repro.pipeline import clear_memo
from repro.service import AttackService, Job, ServiceClient
from repro.service.client import ServiceClientError

TINY = {"design": "tiny_a", "split_layer": 3, "attack": "proximity"}


@pytest.fixture(params=["jsonl"])
def service(monkeypatch, tmp_path):
    """A live service over a JSONL results store (the ``[jsonl]`` id
    keeps the tests' names stable)."""
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


def test_live_job_streams_every_kind(monkeypatch, tmp_path):
    """The streaming acceptance bar, made deterministic: the stream is
    open *before* the scheduler starts (the consumer has received the
    replayed ``submitted`` event), so every scheduler-side event of the
    live job must arrive through the bus — push, not poll."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    clear_memo()
    svc = AttackService(
        store=ResultsStore(tmp_path / "experiments.jsonl"),
        queue_path=tmp_path / "queue.jsonl",
    )
    svc.scheduler.poll_interval = 0.01
    http_thread = threading.Thread(
        target=svc.httpd.serve_forever, daemon=True
    )
    http_thread.start()
    try:
        client = ServiceClient(svc.url, timeout=10.0)
        out = client.submit(specs=[TINY])
        job_id = out["job"]["job_id"]
        events = []
        subscribed = threading.Event()

        def consume():
            for event in client.events(job_id, timeout=60.0):
                events.append(event)
                subscribed.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        # The server subscribes to the job's events before it replays
        # ``submitted``, and the job cannot progress until a scheduler
        # runs: once the first event is in, the consumer is listening
        # for every event that follows.
        assert subscribed.wait(60.0)
        for scheduler in svc.schedulers:
            scheduler.start()
        consumer.join(60.0)
        assert not consumer.is_alive()

        kinds = [e["kind"] for e in events]
        assert kinds[0] == "submitted"
        assert "node" in kinds
        assert "progress" in kinds
        # exactly one terminal event, and it ends the stream
        assert kinds[-1] == "done"
        assert sum(k in ("done", "failed", "cancelled") for k in kinds) == 1
        assert all(e["job_id"] == job_id for e in events)
        # node events carry the engine-hook shape
        node = next(e for e in events if e["kind"] == "node")
        assert node["data"]["node_kind"] in ("layout", "eval")
        assert "seconds" in node["data"]
        # the final progress event accounts for the full plan
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress[-1]["data"]["nodes_done"] \
            == progress[-1]["data"]["nodes_total"]
    finally:
        svc.stop()
        clear_memo()


def test_terminal_event_right_after_snapshot_is_not_lost(
    monkeypatch, tmp_path
):
    """``job_events`` subscribes before it reads the job snapshot, so a
    terminal event published right after the read reaches the stream
    through the bus — never dropped, never waited out as a quiet poll
    chunk.  The snapshot is modelled as the point-in-time view it is
    (a re-folded journal hands out fresh objects)."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    svc = AttackService(
        store=ResultsStore(tmp_path / "experiments.jsonl"),
        queue_path=tmp_path / "queue.jsonl",
    )
    try:
        # A dropped event would stall the stream this long.
        svc.STREAM_POLL_S = 5.0
        job, _ = svc.queue.submit([ScenarioSpec.from_dict(TINY)])
        real_get = svc.queue.get
        calls = []

        def get_then_finish(job_id):
            view = real_get(job_id)
            calls.append(job_id)
            if len(calls) == 1:
                view = Job.from_dict(view.to_dict())
                # The scheduler finishes the job and publishes, exactly
                # as SweepScheduler._finish does.
                svc.queue.claim(worker="w")
                svc.queue.complete(job_id)
                svc._publish_job_event(job_id, "done", "done", {})
            return view

        monkeypatch.setattr(svc.queue, "get", get_then_finish)
        started = time.monotonic()
        events = list(svc.job_events(job.job_id))
        elapsed = time.monotonic() - started
    finally:
        svc.scheduler.executor.close()
        svc.httpd.server_close()
    assert None not in events, "keepalive before the terminal event"
    assert [e["kind"] for e in events] == ["submitted", "done"]
    assert elapsed < 1.0, f"terminal event waited out {elapsed:.1f}s"


class TestEventStream:
    def test_finished_job_streams_snapshot_then_done(self, service):
        client = ServiceClient(service.url, timeout=10.0)
        out = client.submit(specs=[TINY])
        job_id = out["job"]["job_id"]
        client.wait(job_id, timeout=60.0)
        # A stream opened *after* completion replays no history: one
        # snapshot, one terminal event, then EOF.
        kinds = [e["kind"] for e in client.events(job_id, timeout=10.0)]
        assert kinds == ["submitted", "done"]

    def test_unknown_job_is_404_not_a_stream(self, service):
        client = ServiceClient(service.url, timeout=10.0)
        with pytest.raises(ServiceClientError) as err:
            list(client.events("job-nope"))
        assert err.value.status == 404


def test_cancel_ends_open_stream(monkeypatch, tmp_path):
    # HTTP thread only — no scheduler — so the job stays queued and the
    # open stream's terminal event can only come from the cancellation.
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
        out = client.submit(specs=[TINY])
        job_id = out["job"]["job_id"]
        collected = []
        consumer = threading.Thread(
            target=lambda: collected.extend(
                client.events(job_id, timeout=30.0)
            )
        )
        consumer.start()
        client.cancel(job_id)
        consumer.join(30.0)
        assert not consumer.is_alive()
        assert [e["kind"] for e in collected][-1] == "cancelled"
    finally:
        svc._closing = True
        svc.httpd.shutdown()
        svc.httpd.server_close()
        http_thread.join(5.0)


class TestPaginatedResults:
    def seed(self, service, client, n=5):
        specs = [
            {"design": "tiny_a", "split_layer": layer, "attack": "proximity"}
            for layer in range(1, n + 1)
        ]
        out = client.submit(specs=specs)
        client.wait(out["job"]["job_id"], timeout=120.0)
        return specs

    def test_wire_format_and_walk(self, service):
        client = ServiceClient(service.url, timeout=30.0)
        specs = self.seed(service, client)
        page = client.results_page(limit=2)
        assert page["total"] == len(specs)
        assert page["limit"] == 2 and page["offset"] == 0
        assert len(page["records"]) == 2
        # pages tile the full listing exactly, in first-seen order
        walked = []
        offset = 0
        while True:
            page = client.results_page(limit=2, offset=offset)
            walked.extend(page["records"])
            offset += 2
            if offset >= page["total"]:
                break
        hashes = [
            ScenarioSpec.from_dict(s).scenario_hash for s in specs
        ]
        assert [r["scenario_hash"] for r in walked] == hashes
        # newest-first ordering reverses the listing
        newest = client.results_page(order="desc", limit=1)
        assert newest["records"][0]["scenario_hash"] == hashes[-1]
        # filters compose with pagination and count the filtered total
        filtered = client.results_page(design="tiny_a", limit=3)
        assert filtered["total"] == len(specs)

    def test_bad_pagination_is_400(self, service):
        client = ServiceClient(service.url, timeout=10.0)
        for query in ("limit=abc", "offset=x", "order=sideways"):
            with pytest.raises(ServiceClientError) as err:
                client._request("GET", f"/results?{query}")
            assert err.value.status == 400

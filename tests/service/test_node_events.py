"""Per-node settling: each node's ``node`` event is published as the
node completes, not after the executor finishes the whole batch.

Both tests run a two-node serial batch (the layout nodes of two
proximity scenarios on an empty cache) and log when each layout job
starts and when its ``node`` event arrives.
"""

import pytest

from repro.api import Client
from repro.experiments import ResultsStore, ScenarioSpec
from repro.experiments import engine
from repro.pipeline import clear_memo
from repro.service import JobQueue, SweepScheduler

from test_scheduler import wait_done


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_memo()
    yield
    clear_memo()


SPECS = [
    ScenarioSpec(design=design, split_layer=3, attack="proximity")
    for design in ("tiny_a", "tiny_b")
]


@pytest.fixture()
def timeline(monkeypatch):
    """``("start", design)`` entries logged as each layout job begins."""
    log = []
    layout_job = engine._NODE_JOBS["layout"]

    def logged_layout_job(design, *args):
        log.append(("start", design))
        return layout_job(design, *args)

    monkeypatch.setitem(engine._NODE_JOBS, "layout", logged_layout_job)
    return log


def layout_timeline(log):
    return [
        entry for entry in log
        if entry[0] == "start" or "'layout'" in entry[1]
    ]


def test_local_backend_publishes_each_node_before_the_next_starts(
    tmp_path, timeline
):
    def on_event(event):
        if event.kind == "node":
            timeline.append(("node", event.data["key"]))

    with Client(store=ResultsStore(tmp_path / "exp.jsonl"),
                on_event=on_event) as client:
        client.run(SPECS)
    steps = [kind for kind, _ in layout_timeline(timeline)]
    assert steps == ["start", "node", "start", "node"]


def test_scheduler_publishes_each_node_before_the_next_starts(
    tmp_path, timeline
):
    def on_job_event(job_id, kind, message, data):
        if kind == "node":
            timeline.append(("node", data["key"]))

    queue = JobQueue(tmp_path / "queue.jsonl")
    scheduler = SweepScheduler(
        queue, ResultsStore(tmp_path / "exp.jsonl"), workers=1,
        poll_interval=0.01, on_job_event=on_job_event,
    ).start()
    try:
        job, _ = queue.submit(SPECS)
        assert wait_done(queue, job.job_id).status == "done"
    finally:
        scheduler.stop()
    steps = [kind for kind, _ in layout_timeline(timeline)]
    assert steps == ["start", "node", "start", "node"]

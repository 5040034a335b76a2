"""Client facade: spec coercion, helpers, events, cancellation."""

import pytest

from repro.api import Client, JobCancelled, ProgressEvent
from repro.experiments import ScenarioSpec
from repro.pipeline import clear_memo


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_memo()
    yield
    clear_memo()


def prox(design, **kw):
    return ScenarioSpec(design=design, split_layer=3, attack="proximity", **kw)


class TestSubmission:
    def test_accepts_spec_dicts_specs_and_grid_names(self):
        with Client() as client:
            for scenarios in (
                prox("tiny_a"),
                [prox("tiny_a")],
                {"design": "tiny_a", "split_layer": 3,
                 "attack": "proximity"},
            ):
                job = client.submit(scenarios)
                assert [s.design for s in job.specs] == ["tiny_a"]
            grid_job = client.submit(
                "attack-matrix",
                {"designs": "tiny_a", "split_layers": (3,),
                 "attacks": ("proximity",)},
            )
            assert grid_job.grid == "attack-matrix"
            assert len(grid_job.specs) == 1

    def test_params_only_for_grid_names(self):
        with Client() as client:
            with pytest.raises(TypeError):
                client.submit([prox("tiny_a")], {"designs": "tiny_a"})

    def test_empty_submission_rejected(self):
        with Client() as client:
            with pytest.raises(ValueError):
                client.submit([])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Client(backend="cluster")
        # The serial in-process backend is the local one with one worker.
        with pytest.raises(ValueError, match="inline"):
            Client(backend="inline")

    def test_service_backend_rejects_store_false(self):
        # The service always records to its results store; silently
        # recording would contradict the store=False contract.
        with pytest.raises(ValueError):
            Client(backend="service", store=False)

    def test_remote_service_rejects_local_store(self):
        # A store= that a remote service would never write to must be
        # rejected loudly, not silently left empty.
        with pytest.raises(ValueError):
            Client(
                backend="service", url="http://127.0.0.1:1",
                store="local.jsonl",
            )

    def test_prebuilt_backend_brings_its_store(self, tmp_path):
        from repro.api import LocalBackend
        from repro.experiments import ResultsStore

        store = ResultsStore(tmp_path / "mine.jsonl")
        with Client(backend=LocalBackend(store=store)) as client:
            assert client.store is store
            client.run([prox("tiny_a")])
            # results() must query the store the backend writes.
            assert client.results(design="tiny_a")

    def test_backend_use_after_close_raises(self):
        from repro.api import BackendError

        client = Client(backend="local")
        job = client.submit([prox("tiny_a")])
        client.close()
        # Silently recreating the worker pool would leak it.
        with pytest.raises(BackendError):
            job.wait()

    def test_failed_job_rewait_raises_without_reexecution(self):
        from repro.api import BackendError

        with Client() as client:
            job = client.submit([prox("no_such_design")])
            with pytest.raises(KeyError):
                job.wait()
            assert job.status == "failed"
            # Re-waiting re-raises; it must not re-run the sweep.
            with pytest.raises(BackendError):
                job.wait()


class TestExecution:
    def test_run_records_to_store_and_resumes(self):
        with Client() as client:
            result = client.run([prox("tiny_a")])
            assert result.executed == 1 and result.reused == 0
            record = result.records[0]
            assert record.status == "ok" and record.ccr is not None
            assert client.results(design="tiny_a")[0].ccr == record.ccr
            again = client.run([prox("tiny_a")])
            assert again.executed == 0 and again.reused == 1
            assert again.records[0].ccr == record.ccr

    def test_attack_helper_preserves_order(self):
        with Client() as client:
            result = client.attack(
                "tiny_a", attacks=("proximity", "flow")
            )
        assert [s.attack for s in result.specs] == ["proximity", "flow"]
        assert all(r.status == "ok" for r in result.records)
        assert result.record_for(result.specs[0]) is result.records[0]

    def test_events_stream_through_one_interface(self):
        events: list[ProgressEvent] = []
        with Client(on_event=events.append) as client:
            client.run([prox("tiny_a")])
        kinds = [event.kind for event in events]
        assert kinds[0] == "submitted"
        assert "node" in kinds  # engine on_node unified into on_event
        assert "message" in kinds  # engine progress strings
        assert kinds[-1] == "done"

    def test_resultset_query_and_render(self):
        with Client() as client:
            result = client.run(
                [prox("tiny_a", tags=("t",)), prox("tiny_b")]
            )
        assert len(result) == 2
        assert [r.scenario["design"] for r in result.query(tag="t")] \
            == ["tiny_a"]
        assert result.report() is None  # raw specs: no bespoke report
        assert "tiny_a" in result.render()

    def test_no_store_client_returns_but_does_not_record(self):
        with Client(store=False) as client:
            result = client.run([prox("tiny_a")])
            assert result.records[0].status == "ok"
            assert client.results(design="tiny_a") == []


class TestCancellation:
    def test_cancel_before_wait(self):
        with Client() as client:
            job = client.submit([prox("tiny_a")])
            assert client.cancel(job) is True
            assert job.status == "cancelled" and job.done
            with pytest.raises(JobCancelled):
                job.wait()

    def test_cancel_after_completion_is_noop(self):
        with Client() as client:
            job = client.submit([prox("tiny_a")])
            job.wait()
            assert client.cancel(job) is False
            assert job.status == "done"

    def test_cancel_by_id_requires_service_backend(self):
        with Client() as client:
            with pytest.raises(TypeError):
                client.cancel("job-123")

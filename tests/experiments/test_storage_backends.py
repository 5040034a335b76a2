"""Results-store conformance suite.

:class:`ResultsStore` must present the observable store semantics —
latest-wins, the shared filter vocabulary, pagination, cross-process
reload pickup — plus its journal's durability rules (torn tails,
truncation, rewritten files) and its refusal to open a SQLite file.
"""

import json
import random
import sys
import threading

import pytest

from repro.experiments import (
    DefenseSpec,
    ResultsStore,
    ScenarioRecord,
    ScenarioSpec,
    record_matches,
)
from repro.experiments.store import SQLITE_HEADER


def spec_for(i, **kw):
    kw.setdefault("design", f"tiny_{chr(ord('a') + i % 4)}")
    kw.setdefault("split_layer", (1, 3)[i % 2])
    kw.setdefault("attack", ("proximity", "flow")[i % 2])
    if kw["attack"] == "flow":
        kw.setdefault("flow_timeout_s", 5.0)
    return ScenarioSpec(**kw)


def record_for(spec, ccr=50.0, status="ok"):
    return ScenarioRecord(
        scenario_hash=spec.scenario_hash,
        scenario=spec.to_dict(),
        status=status,
        ccr=ccr,
        runtime_s=1.0,
        n_sink_fragments=4,
        n_source_fragments=2,
    )


def store_for(tmp_path, name="exp"):
    return ResultsStore(tmp_path / f"{name}.jsonl")


@pytest.fixture(params=["jsonl"])
def jsonl_id(request):
    """Tags a test ``[jsonl]``, the backend kind it runs on."""
    return request.param


@pytest.mark.usefixtures("jsonl_id")
class TestConformance:
    def test_latest_wins_and_history(self, tmp_path):
        store = store_for(tmp_path)
        spec = spec_for(0)
        store.add(record_for(spec, ccr=10.0))
        store.add(record_for(spec, ccr=20.0))
        assert len(store) == 1
        assert store.get(spec).ccr == 20.0
        assert [r.ccr for r in store.history()] == [10.0, 20.0]
        # persisted, not just in-memory state
        fresh = store_for(tmp_path)
        assert fresh.get(spec).ccr == 20.0
        assert len(fresh.history()) == 2

    def test_filter_vocabulary(self, tmp_path):
        store = store_for(tmp_path)
        specs = [
            spec_for(0, design="tiny_a", split_layer=1, attack="proximity"),
            spec_for(1, design="tiny_a", split_layer=3, attack="flow"),
            ScenarioSpec(design="tiny_b", split_layer=3, attack="proximity",
                         defense=DefenseSpec("lift", 0.5),
                         tags=("defense-sweep",)),
        ]
        store.add(record_for(specs[0], ccr=10.0))
        store.add(record_for(specs[1], ccr=None, status="timeout"))
        store.add(record_for(specs[2], ccr=30.0))
        assert {r.ccr for r in store.query(design="tiny_a")} == {10.0, None}
        assert store.query(attack="flow")[0].status == "timeout"
        assert store.query(defense_kind="lift")[0].ccr == 30.0
        assert store.query(tag="defense-sweep")[0].ccr == 30.0
        assert store.query(status="ok", split_layer=3)[0].ccr == 30.0
        assert store.count(design="tiny_a") == 2
        assert store.count(defense_kind="lift", status="ok") == 1
        assert store.query(design="nope") == []

    def test_pagination(self, tmp_path):
        store = store_for(tmp_path)
        specs = [spec_for(i, design=f"d{i}") for i in range(7)]
        for i, spec in enumerate(specs):
            store.add(record_for(spec, ccr=float(i)))
        ordered = [r.ccr for r in store.records()]
        assert ordered == [float(i) for i in range(7)]
        assert [r.ccr for r in store.query(limit=3)] == [0.0, 1.0, 2.0]
        assert [r.ccr for r in store.query(limit=3, offset=5)] == [5.0, 6.0]
        assert [r.ccr for r in store.query(offset=5)] == [5.0, 6.0]
        assert [r.ccr for r in store.query(order="desc", limit=2)] \
            == [6.0, 5.0]
        assert store.query(limit=0) == []
        # count reports the unpaginated total the page was cut from
        assert store.count() == 7
        # a walked pagination covers every record exactly once
        walked = []
        for offset in range(0, 7, 2):
            walked.extend(store.query(limit=2, offset=offset))
        assert [r.ccr for r in walked] == ordered

    def test_first_seen_order_survives_updates(self, tmp_path):
        store = store_for(tmp_path)
        specs = [spec_for(i, design=f"d{i}") for i in range(3)]
        for spec in specs:
            store.add(record_for(spec, ccr=1.0))
        store.add(record_for(specs[0], ccr=99.0))  # update the oldest
        hashes = [r.scenario_hash for r in store.records()]
        assert hashes == [s.scenario_hash for s in specs]
        assert store.records()[0].ccr == 99.0

    def test_cross_instance_reload(self, tmp_path):
        writer = store_for(tmp_path)
        reader = store_for(tmp_path)
        spec = spec_for(0)
        writer.add(record_for(spec, ccr=42.0))
        assert reader.reload() == 1
        assert reader.get(spec).ccr == 42.0
        # incremental: a second reload with nothing new folds nothing
        assert reader.reload() == 0

    def test_concurrent_append_then_read(self, tmp_path):
        store = store_for(tmp_path)
        n_threads, per_thread = 4, 8

        def writer(t):
            for i in range(per_thread):
                spec = spec_for(i, design=f"t{t}_{i}")
                store.add(record_for(spec, ccr=float(t * 100 + i)))

        threads = [
            threading.Thread(target=writer, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) == n_threads * per_thread
        assert len(store.history()) == n_threads * per_thread
        # a fresh instance converges on the same view
        fresh = store_for(tmp_path)
        assert len(fresh) == n_threads * per_thread

    def test_queries_hold_the_lock_against_concurrent_adds(
        self, tmp_path
    ):
        # query/count scan the latest-wins view; an add folding a new
        # scenario mid-scan would change its size under the iterator
        # ("dictionary changed size during iteration").
        store = store_for(tmp_path)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    store.query(design="t_a")
                    store.count(attack="flow")
                    store.records()
                except RuntimeError as err:
                    errors.append(err)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt the scans often
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(600):
                spec = spec_for(i, design=("t_a", "t_b")[i % 2] + f"{i}")
                store.add(record_for(spec))
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(switch)
        assert len(store) == 600
        assert errors == []

    def test_payload_roundtrip_is_exact(self, tmp_path):
        store = store_for(tmp_path)
        spec = ScenarioSpec(design="tiny_b", split_layer=3,
                            attack="proximity",
                            defense=DefenseSpec("lift", 0.5),
                            tags=("golden",))
        record = record_for(spec, ccr=12.5)
        record.extra["telemetry"] = {"node_seconds": 0.5}
        store.add(record)
        got = store_for(tmp_path).get(spec)
        assert json.dumps(got.to_dict(), sort_keys=True) \
            == json.dumps(record.to_dict(), sort_keys=True)


class TestJournalDurability:
    def test_torn_tail_is_tolerated(self, tmp_path):
        store = store_for(tmp_path)
        spec = spec_for(0)
        store.add(record_for(spec))
        with open(store.path, "a") as handle:
            handle.write('{"scenario_hash": "truncat')
        fresh = store_for(tmp_path)
        assert len(fresh) == 1
        # the torn tail stays un-folded on incremental reloads too
        assert fresh.reload() == 0
        # a writer completing the line makes it visible
        with open(store.path, "a") as handle:
            handle.write('ed"}\n')
        assert fresh.reload() == 1

    def test_add_after_torn_tail_is_visible(self, tmp_path):
        """A writer that died mid-append left a torn last line: the
        next add seals it off instead of gluing onto the fragment."""
        store = store_for(tmp_path)
        store.add(record_for(spec_for(0), ccr=1.0))
        with open(store.path, "a") as handle:
            handle.write('{"scenario_hash": "truncat')
        spec = spec_for(1, design="after")
        store.add(record_for(spec, ccr=2.0))
        assert store.get(spec).ccr == 2.0
        fresh = store_for(tmp_path)
        assert fresh.get(spec).ccr == 2.0
        assert [r.ccr for r in fresh.history()] == [1.0, 2.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_truncation_at_any_byte_folds_the_prefix(self, seed, tmp_path):
        rng = random.Random(4000 + seed)
        writer = store_for(tmp_path, "full")
        for i in range(rng.randrange(2, 8)):
            spec = spec_for(i, design=f"d{rng.randrange(4)}")
            writer.add(record_for(spec, ccr=float(i)))
        text = writer.path.read_bytes()
        cut = rng.randrange(len(text))
        path = tmp_path / "cut.jsonl"
        path.write_bytes(text[:cut])
        # The fold equals a clean fold of the complete-line prefix: the
        # torn final line contributes nothing.
        clean = tmp_path / "clean.jsonl"
        clean.write_bytes(text[:text.rfind(b"\n", 0, cut) + 1])

        def view(store):
            return [json.dumps(r.to_dict(), sort_keys=True)
                    for r in store.history()]

        store = ResultsStore(path)
        assert view(store) == view(ResultsStore(clean))
        # ...and the next add lands as a record of its own.
        spec = spec_for(9, design="next")
        store.add(record_for(spec, ccr=9.0))
        assert store.get(spec).ccr == 9.0
        assert ResultsStore(path).get(spec).ccr == 9.0
        assert view(ResultsStore(path)) == view(store)

    def test_incremental_reload_is_tail_only(self, tmp_path):
        writer = store_for(tmp_path)
        reader = store_for(tmp_path)
        for i in range(5):
            writer.add(record_for(spec_for(i, design=f"d{i}")))
        assert reader.reload() == 5
        offset_after = reader.journal.offset
        assert offset_after == store_for(tmp_path).path.stat().st_size
        writer.add(record_for(spec_for(9, design="late")))
        assert reader.reload() == 1
        assert reader.journal.offset > offset_after

    def test_replaced_journal_resets(self, tmp_path):
        writer = store_for(tmp_path)
        reader = store_for(tmp_path)
        writer.add(record_for(spec_for(0)))
        assert reader.reload() == 1
        # simulate an out-of-band rewrite (compaction/replace)
        other = spec_for(1, design="other")
        store_path = writer.path
        store_path.unlink()
        solo = ResultsStore(store_path)
        solo.add(record_for(other))
        reader.reload()
        assert len(reader) == 1
        assert reader.get(other) is not None


    def test_sqlite_file_is_refused_and_left_unchanged(self, tmp_path):
        path = tmp_path / "experiments.sqlite"
        payload = SQLITE_HEADER + bytes(range(256)) * 16
        path.write_bytes(payload)
        with pytest.raises(ValueError, match="no longer supported") as err:
            ResultsStore(path)
        assert str(path) in str(err.value)
        assert path.read_bytes() == payload


class TestForeignRecords:
    """Records written by other tools (or older versions) may omit
    scenario fields; queries must skip, not crash (regression for a
    KeyError out of record_matches on partial records)."""

    def test_record_matches_tolerates_partial_scenarios(self):
        partial = ScenarioRecord.from_dict({"scenario_hash": "x"})
        assert record_matches(partial)  # no filters: matches
        assert not record_matches(partial, design="tiny_a")
        assert not record_matches(partial, split_layer=3)
        assert not record_matches(partial, defense_kind="lift")
        assert not record_matches(partial, tag="golden")
        weird = ScenarioRecord.from_dict({
            "scenario_hash": "y", "scenario": {"defense": "not-a-dict"},
        })
        assert not record_matches(weird, defense_kind="lift")
        with pytest.raises(KeyError):
            ScenarioRecord.from_dict({"status": "ok"})  # unkeyed

    @pytest.mark.usefixtures("jsonl_id")
    def test_store_queries_skip_foreign_records(self, tmp_path):
        store = store_for(tmp_path)
        store.add(ScenarioRecord.from_dict(
            {"scenario_hash": "foreign", "ccr": 1.0}
        ))
        store.add(record_for(spec_for(0, design="tiny_a"), ccr=2.0))
        assert len(store) == 2
        assert [r.ccr for r in store.query(design="tiny_a")] == [2.0]
        assert store.count(design="tiny_a") == 1
        assert store.get("foreign").status == "unknown"

"""The one append-only JSONL journal under the job queue and the
results store: sealed appends, the incremental tail fold and
compaction's rewrite."""

import json
import os

from repro.core.journal import Journal


def lines(*events) -> bytes:
    return b"".join(
        json.dumps(event, sort_keys=True).encode() + b"\n" for event in events
    )


def test_append_writes_one_sorted_line_per_event(tmp_path):
    journal = Journal(tmp_path / "sub" / "j.jsonl")
    journal.append({"b": 1, "a": [2]})
    journal.append({"event": "x"})
    assert journal.path.read_bytes() == lines({"a": [2], "b": 1},
                                              {"event": "x"})


def test_tail_returns_only_new_events(tmp_path):
    journal = Journal(tmp_path / "j.jsonl")
    assert journal.tail() == (False, None)  # no file yet
    journal.append({"n": 1})
    # The first read of a file is a reset onto its inode.
    assert journal.tail() == (True, [{"n": 1}])
    assert journal.tail() == (False, None)  # one stat, nothing read
    journal.append({"n": 2})
    journal.append({"n": 3})
    assert journal.tail() == (False, [{"n": 2}, {"n": 3}])
    assert journal.offset == journal.path.stat().st_size


def test_incomplete_last_line_waits_for_its_newline(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(lines({"n": 1}) + b'{"n": ')
    journal = Journal(path)
    assert journal.tail() == (True, [{"n": 1}])
    assert journal.tail() == (False, [])
    assert journal.offset == len(lines({"n": 1}))
    with open(path, "ab") as handle:
        handle.write(b'2}\n')
    assert journal.tail() == (False, [{"n": 2}])


def test_undecodable_and_non_object_lines_are_skipped(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(
        b'not json\n\n  \n[1, 2]\n"text"\nnull\n\xff\xfe{\n'
        + lines({"n": 1})
    )
    assert Journal(path).tail() == (True, [{"n": 1}])


def test_append_seals_a_torn_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(lines({"n": 1}) + b'{"n": 2, "to')
    journal = Journal(path)
    journal.append({"n": 3})
    assert path.read_bytes() == (
        lines({"n": 1}) + b'{"n": 2, "to\n' + lines({"n": 3})
    )
    assert journal.tail() == (True, [{"n": 1}, {"n": 3}])


def test_seal_leaves_whole_lines_and_empty_files_alone(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = Journal(path)
    journal.seal()
    assert not path.exists()
    path.write_bytes(b"")
    journal.seal()
    assert path.read_bytes() == b""
    path.write_bytes(lines({"n": 1}))
    journal.seal()
    assert path.read_bytes() == lines({"n": 1})


def test_tail_writes_nothing(tmp_path):
    path = tmp_path / "j.jsonl"
    torn = lines({"n": 1}) + b'{"n": 2'
    path.write_bytes(torn)
    journal = Journal(path)
    journal.tail()
    journal.tail()
    assert path.read_bytes() == torn


def test_rewritten_file_resets_every_other_reader(tmp_path):
    path = tmp_path / "j.jsonl"
    writer, reader = Journal(path), Journal(path)
    for n in range(3):
        writer.append({"n": n})
    writer.tail()
    assert reader.tail() == (True, [{"n": 0}, {"n": 1}, {"n": 2}])
    writer.rewrite([{"n": 9}])
    assert path.read_bytes() == lines({"n": 9})
    # The writer already holds the snapshot: its tail moved past it.
    assert writer.tail() == (False, None)
    assert reader.tail() == (True, [{"n": 9}])
    writer.append({"n": 10})
    assert writer.tail() == (False, [{"n": 10}])
    assert reader.tail() == (False, [{"n": 10}])


def test_rewrite_to_nothing_is_a_reset(tmp_path):
    path = tmp_path / "j.jsonl"
    writer, reader = Journal(path), Journal(path)
    writer.append({"n": 1})
    reader.tail()
    writer.rewrite([])
    assert path.read_bytes() == b""
    assert reader.tail() == (True, None)
    assert reader.tail() == (False, None)


def test_shrunk_file_on_the_same_inode_is_a_reset(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(lines({"n": 1}, {"n": 2}))
    journal = Journal(path)
    journal.tail()
    ino = path.stat().st_ino
    with open(path, "r+b") as handle:
        handle.truncate(len(lines({"n": 1})))
    assert path.stat().st_ino == ino
    assert journal.tail() == (True, [{"n": 1}])


def test_missing_file_keeps_or_forgets_the_position(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(lines({"n": 1}))
    kept, forgot = Journal(path), Journal(path)
    kept.tail()
    forgot.tail()
    offset = kept.offset
    os.unlink(path)
    assert kept.tail() == (False, None)
    assert kept.offset == offset
    assert forgot.tail(forget_missing=True) == (True, None)
    assert forgot.tail(forget_missing=True) == (False, None)
    # A file created again is read from byte 0.
    Journal(path).append({"n": 2})
    assert forgot.tail(forget_missing=True) == (True, [{"n": 2}])

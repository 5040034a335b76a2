"""Append-only JSONL journal with an incremental tail fold.

The job queue (:mod:`repro.service.queue`) and the results store
(:mod:`repro.experiments.store`) both keep their state as a fold over
one of these: every change is one JSON line, appended with a single
``O_APPEND`` write (:func:`repro.core.atomic.atomic_append_line`) so
concurrent appenders interleave whole lines, never bytes.

:meth:`Journal.tail` hands back only the events appended since its
last call.  It tracks the byte offset and inode it has read so far, so
picking up another process's appends costs one ``stat`` plus a read of
the new tail, not a re-parse of the whole history.  A rewritten file
(new inode, or shrunk) is reported as a reset and read again from byte
0.  An incomplete last line (a writer mid-append) waits until its
newline lands; lines that are not JSON objects are skipped.

:meth:`Journal.append` first seals a torn last line that a dead writer
left behind, so the new event cannot glue onto the fragment and be
lost with it.  :meth:`Journal.rewrite` atomically replaces the file
(compaction) and fast-forwards the tail past exactly the bytes it
wrote.

The journal keeps no metrics and takes no lock: its callers time their
folds under their own metric names and serialise calls with their own
locks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .atomic import atomic_append_line, atomic_write_text


class Journal:
    """One JSONL file: sealed appends, incremental tails, rewrites."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.offset = 0  # bytes handed out by tail() so far
        self.ino = -1  # detects rewrites (os.replace, delete + create)

    def append(self, event: dict) -> None:
        """Append one event as a single line (sealing a torn tail
        first); it becomes visible to the next :meth:`tail`."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.seal()
        atomic_append_line(self.path, json.dumps(event, sort_keys=True))

    def seal(self) -> None:
        """End a torn last line left by a writer that died mid-append.

        Without the sealing newline the next append would glue onto
        the fragment and be lost with it.  Two processes sealing at
        once only leave a blank line, which :meth:`tail` skips.
        """
        try:
            with open(self.path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
        except OSError:
            return
        if torn:
            # A single-byte append sealing the torn tail cannot itself
            # tear; the O_APPEND machinery is overkill for one newline.
            with open(self.path, "ab") as handle:  # repro: ignore[atomic-write]
                handle.write(b"\n")

    def tail(
        self, forget_missing: bool = False
    ) -> tuple[bool, list[dict] | None]:
        """Events appended since the last call, as ``(reset, events)``.

        ``reset`` is True when the file was rewritten (new inode, or
        shrunk): the caller drops its folded state before applying
        ``events``, which then start from byte 0.  ``events`` is None
        when nothing was read (one ``stat``: no new bytes, or no file).
        A missing file keeps the position unless ``forget_missing``,
        which turns a file that vanished after being read into a reset
        to nothing.
        """
        try:
            stat = os.stat(self.path)
        except OSError:
            if forget_missing and self.offset:
                self.offset, self.ino = 0, -1
                return True, None
            return False, None
        reset = stat.st_ino != self.ino or stat.st_size < self.offset
        if reset:
            self.offset, self.ino = 0, stat.st_ino
        if stat.st_size <= self.offset:
            return reset, None
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            chunk = handle.read()
        complete = chunk.rfind(b"\n")
        if complete < 0:
            return reset, []  # torn tail in progress: wait for its newline
        self.offset += complete + 1
        events = []
        for raw in chunk[:complete].split(b"\n"):
            if not raw.strip():
                continue
            try:
                event = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn/foreign line: the journal stays usable
            if isinstance(event, dict):
                events.append(event)
        return reset, events

    def rewrite(self, events: list[dict]) -> None:
        """Atomically replace the file with ``events`` (compaction).

        The caller has already folded ``events``, so the tail moves
        past exactly the bytes written, onto the new inode; an append
        racing in right behind the replace stays beyond the offset for
        the next :meth:`tail`.
        """
        text = "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in events
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, text)
        try:
            self.ino = os.stat(self.path).st_ino
            self.offset = len(text.encode("utf-8"))
        except OSError:
            self.offset, self.ino = 0, -1

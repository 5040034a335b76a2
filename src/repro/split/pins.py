"""The virtual pins of many fragments as flat arrays.

Candidate selection and the three baseline attacks all compare one
sink fragment's pins against every source fragment's pins.  A
:class:`PinTable` flattens the source side once per layout, and
:meth:`PinTable.deltas` is the sink-pins x source-pins kernel they
share: one sink at a time, so memory stays O(sink pins x table pins)
however many sinks the layout has.  The flow k-NN and the random
forest read the closest pin pair per fragment from
:meth:`PinTable.nearest`; proximity needs only the closest fragment, so
it reduces ``deltas`` to one minimum per sink itself.
"""

from __future__ import annotations

import numpy as np

from .fragments import Fragment


class PinTable:
    """Every virtual pin of ``fragments``, flattened in fragment order.

    A fragment's pins are contiguous and in the fragment's own pin
    order (``starts[i]`` indexes the first pin of ``fragments[i]``), so
    "first pin wins" ties follow the order a nested
    fragment -> pin loop would visit them in.  Fragments without
    virtual pins are left out: no pair can involve them.
    """

    def __init__(self, fragments: list[Fragment]):
        self.fragments = [f for f in fragments if f.virtual_pins]
        self.pins = [vp for f in self.fragments for vp in f.virtual_pins]
        counts = [len(f.virtual_pins) for f in self.fragments]
        self.starts = np.cumsum([0] + counts[:-1], dtype=np.intp)
        self.owner = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        self.fragment_ids = np.array(
            [f.fragment_id for f in self.fragments], dtype=np.int64
        )
        self.x = np.array([vp.x for vp in self.pins], dtype=np.int64)
        self.y = np.array([vp.y for vp in self.pins], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.fragments)

    def deltas(self, sink: Fragment) -> tuple[np.ndarray, np.ndarray]:
        """(dx, dy), each (sink pins, table pins): table pin minus sink pin."""
        sx = np.array([vp.x for vp in sink.virtual_pins], dtype=np.int64)
        sy = np.array([vp.y for vp in sink.virtual_pins], dtype=np.int64)
        return self.x - sx[:, None], self.y - sy[:, None]

    def nearest(
        self, sink: Fragment
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closest pin pair between ``sink`` and each table fragment.

        Returns ``(dist, sink_pin, pin)``, one entry per fragment:
        the minimum Manhattan distance over all (sink pin, fragment
        pin) pairs, and the first pair reaching it in sink-pin-major
        order -- ``sink.virtual_pins[sink_pin[i]]`` and
        ``pins[pin[i]]``.
        """
        if not self.fragments or not sink.virtual_pins:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.astype(np.intp), empty.astype(np.intp)
        dx, dy = self.deltas(sink)
        dist = np.abs(dx) + np.abs(dy)  # (sink pins, table pins)
        row_min = np.minimum.reduceat(dist, self.starts, axis=1)
        best = row_min.min(axis=0)
        sink_pin = (row_min == best).argmax(axis=0)  # first sink pin
        columns = np.arange(len(self.pins))
        hit = dist[sink_pin[self.owner], columns] == best[self.owner]
        pin = np.minimum.reduceat(
            np.where(hit, columns, len(self.pins)), self.starts
        )
        return best, sink_pin, pin

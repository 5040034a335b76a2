"""The materialised image form of a batch, built as an identity gather.

``SplitNet`` takes images in one form: a table of images plus gather
indices into its rows.  The materialised form — every candidate slot
its own source image ``(B, n, C, S, S)`` and every group its own sink
image ``(B, C, S, S)`` — is that form with a table of ``B*n + B`` rows
and identity indices.  Tests that need it build it here and run it
through the production ``forward_deduplicated``/``backward_deduplicated``
pair.
"""

import dataclasses

import numpy as np

from repro.core.dataset import make_batch


def identity_gather(src_images, sink_images):
    """``(table, src_gather, sink_gather)`` giving every slot its own
    table row: sources first, in slot order, then one sink per group."""
    b, n = src_images.shape[:2]
    table = np.concatenate(
        [src_images.reshape(b * n, *src_images.shape[2:]), sink_images]
    )
    src_gather = np.arange(b * n, dtype=np.intp).reshape(b, n)
    sink_gather = b * n + np.arange(b, dtype=np.intp)
    return table, src_gather, sink_gather


def materialised_images(dataset, indices):
    """Float32 ``(sources (B, n, C, S, S), sinks (B, C, S, S))`` of the
    groups ``indices``, gathered from the unique-image table."""
    t = dataset.tensors
    idx = np.asarray(indices, dtype=np.intp)
    return (
        t.image_table[t.src_index[idx]].astype(np.float32),
        t.image_table[t.sink_index[idx]].astype(np.float32),
    )


def materialised_batch(dataset, indices, normalizer):
    """``make_batch`` with its unique-image sub-table swapped for the
    identity gather of every slot's own image."""
    table, src_gather, sink_gather = identity_gather(
        *materialised_images(dataset, indices)
    )
    return dataclasses.replace(
        make_batch(dataset, indices, normalizer),
        image_batch=table, src_gather=src_gather, sink_gather=sink_gather,
    )


def stacked_forward(net, vec, src_images, sink_images):
    """Training forward over materialised image stacks; pair it with
    ``net.backward_deduplicated``."""
    return net.forward_deduplicated(vec, *identity_gather(src_images, sink_images))

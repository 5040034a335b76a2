"""A block pool of a chosen size, for tests.

``block_pool(workers)`` swaps :mod:`repro.nn.blocks`' per-process pool
for one of ``workers`` CPUs (the caller plus ``workers - 1`` pool
threads) and shuts its threads down on exit.  ``block_pool(1)`` runs
every block inline, the serial oracle; ``block_pool(2)`` has one pool
thread, whatever the machine's CPU count.
"""

from contextlib import contextmanager

import pytest

from repro.nn import blocks


@contextmanager
def block_pool(workers: int):
    pool = blocks._BlockPool(workers)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "_POOL", pool)
        try:
            yield pool
        finally:
            if pool._executor is not None:
                pool._executor.shutdown()

"""``map_blocks``: block order, nesting, concurrent callers, errors, fork.

Every test that needs pool threads swaps in a one-worker pool
(``block_pool(2)``: the caller plus one pool thread), so they run the
same on a one-CPU machine.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from block_pool import block_pool
from repro.nn import Conv2D, blocks
from repro.nn.blocks import map_blocks


def spans(a, b):
    return (a, b, threading.get_ident())


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("n, step", [(0, 3), (1, 3), (7, 1), (10, 3), (12, 4)])
def test_blocks_in_order(workers, n, step):
    want = [(a, min(a + step, n)) for a in range(0, n, step)]
    with block_pool(workers):
        got = map_blocks(spans, n, step)
    assert [(a, b) for a, b, _ in got] == want


def meet(a, barrier):
    """Blocks 0 and 1 wait for each other, so the caller and the pool
    thread each run one of them, whichever claims first."""
    if a < 2:
        barrier.wait(timeout=30)


def test_caller_and_pool_thread_both_run_blocks():
    barrier = threading.Barrier(2)

    def block(a, b):
        meet(a, barrier)
        return spans(a, b)

    with block_pool(2) as pool:
        got = map_blocks(block, 5, 1)
    assert [(a, b) for a, b, _ in got] == [(a, a + 1) for a in range(5)]
    caller = threading.get_ident()
    assert caller in {t for _, _, t in got[:2]}
    assert len({t for _, _, t in got[:2]}) == 2
    assert pool._executor is not None


def test_one_cpu_creates_no_pool():
    with block_pool(1) as pool:
        got = map_blocks(spans, 5, 1)
    assert {t for _, _, t in got} == {threading.get_ident()}
    assert pool._executor is None


def nested_calls():
    barrier = threading.Barrier(2)

    def outer(a, b):
        meet(a, barrier)
        inner = map_blocks(spans, 4, 1)
        return threading.get_ident(), {t for _, _, t in inner}

    with block_pool(2):
        return threading.get_ident(), map_blocks(outer, 2, 1)


def test_nested_call_from_a_pool_thread_runs_inline():
    """With one pool thread, a block that waited on the pool for its
    own nested call would wait forever, so this runs in a child that
    can be killed."""
    caller, results = in_forked_child(nested_calls)
    (pool_thread, inner_threads), = [r for r in results if r[0] != caller]
    assert inner_threads == {pool_thread}


def test_concurrent_callers_get_their_own_ordered_results():
    def slow(a, b):
        time.sleep(0.001)
        return a

    out = {}

    def caller(k):
        out[k] = [map_blocks(lambda a, b: (k, slow(a, b)), 20 + k, 1)
                  for _ in range(3)]

    with block_pool(2):
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert all(not t.is_alive() for t in threads)
    for k in range(4):
        assert out[k] == [[(k, a) for a in range(20 + k)]] * 3


def test_stress_every_block_runs_once():
    """More pool threads than cores, several callers, and a thread
    switch every microsecond: a lost claim would run a block twice or
    leave one out."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls, out = [], {}

        def caller(k):
            out[k] = map_blocks(lambda a, b: calls.append(a) or a, 200, 1)

        with block_pool(8):
            threads = [threading.Thread(target=caller, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert all(not t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == sorted(list(range(200)) * 4)
    assert all(out[k] == list(range(200)) for k in range(4))


@pytest.mark.parametrize("failing", [0, 1])
def test_error_reaches_caller_after_every_block_in_flight(failing):
    """Blocks 0 and 1 run at once; one fails at once, the other is
    still writing.  The caller sees the exception only after the other
    has finished, and no later block starts."""
    barrier = threading.Barrier(2)
    finished = []

    def block(a, b):
        meet(a, barrier)
        if a == failing:
            raise ValueError(f"block {a}")
        time.sleep(0.2)
        finished.append(a)

    with block_pool(2):
        with pytest.raises(ValueError, match=f"block {failing}"):
            map_blocks(block, 6, 1)
        at_raise = list(finished)
    assert at_raise == [1 - failing]


def test_first_error_in_block_order_wins():
    barrier = threading.Barrier(2)

    def block(a, b):
        meet(a, barrier)
        time.sleep(0.05 * (1 - a))  # block 1 fails first
        raise ValueError(f"block {a}")

    with block_pool(2):
        with pytest.raises(ValueError, match="block 0"):
            map_blocks(block, 4, 1)


def eval_conv():
    """An 8-channel 33x33 conv: three images per block, so a forward
    over four images runs two blocks, one of them on the pool."""
    conv = Conv2D(8, 8, kernel=3, stride=1, rng=np.random.default_rng(3))
    conv.eval()
    return conv


def _child(conn, fn):
    conn.send(fn())
    conn.close()


def in_forked_child(fn, timeout=60):
    """``fn()`` in a forked child, failing (not hanging) if the child
    has not answered within ``timeout`` seconds."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        pytest.skip("no fork start method")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child, fn))
    proc.start()
    child.close()
    try:
        assert parent.poll(timeout), "the forked child hung"
        result = parent.recv()
    finally:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 0
    return result


def test_forked_child_builds_its_own_pool():
    """A child forked after the parent used its pool inherits the pool
    object but none of its threads; its first conv forward must not
    wait on them."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 8, 33, 33)).astype(np.float32)
    with block_pool(2) as pool:
        want = eval_conv()(x)
        assert pool._executor is not None
        got, built_pool = in_forked_child(
            lambda: (eval_conv()(x), blocks._POOL._executor is not None)
        )
    assert built_pool
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

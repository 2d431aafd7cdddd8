"""The hot-loop opener must draw exactly what a fresh stream draws, the
accumulator must add like the plain loop, and the path pool must yield the
serial sequence and leave no process behind."""

import contextlib
import multiprocessing
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from dynkin_lab import rng

DOMAINS = (rng.DOMAIN_FIELD, rng.DOMAIN_TORUS, rng.DOMAIN_PATH)
ADDRESSES = ((0, 0, 0), (12345, 7, 3), (2**63 + 5, 2**40, 1),
             (2**64 - 1, 2**64 - 1, 2**64 - 1), (-3, 5, 0))


def _mixed(gen):
    """A scalar exponential, then uniforms, exponentials and an out= fill
    of normals: the draw kinds of the path, torus and field loops."""
    first = gen.standard_exponential()
    u = gen.random(5)
    e = gen.standard_exponential(7)
    z = np.empty(9)
    gen.standard_normal(9, out=z)
    return np.concatenate([[first], u, e, z])


@pytest.mark.parametrize("domain", DOMAINS)
def test_reopen_draws_what_stream_draws(domain):
    for seed, replicate, component in ADDRESSES:
        want = _mixed(rng.stream(seed, domain, replicate, component))
        got = _mixed(rng._reopen(seed, domain, replicate, component))
        assert np.array_equal(got, want)


def test_reopen_discards_what_the_last_stream_left():
    # a half-used 64-bit buffer and a pending 32-bit half must not leak
    # into the next stream
    gen = rng._reopen(1, rng.DOMAIN_PATH, 0)
    gen.random(3)
    gen.integers(0, 2**32, dtype=np.uint32)
    fresh = rng.stream(2, rng.DOMAIN_TORUS, 4, 9)
    gen = rng._reopen(2, rng.DOMAIN_TORUS, 4, 9)
    assert np.array_equal(gen.integers(0, 2**32, 3, dtype=np.uint32),
                          fresh.integers(0, 2**32, 3, dtype=np.uint32))
    assert np.array_equal(_mixed(gen), _mixed(fresh))


def test_held_stream_keeps_its_own_sequence():
    held = rng.stream(99, rng.DOMAIN_PATH, 0)
    ref = rng.stream(99, rng.DOMAIN_PATH, 0)
    for k in range(20):
        rng._reopen(k, rng.DOMAIN_TORUS, k).standard_normal(5)
        assert np.array_equal(held.standard_normal(3),
                              ref.standard_normal(3))


def test_threads_interleaving_opens_reproduce_the_serial_rows():
    rows, threads_n = 200, 4
    serial = np.array([_mixed(rng.stream(7, rng.DOMAIN_FIELD, r, r % 3))
                       for r in range(rows)])
    out = np.zeros((threads_n,) + serial.shape)
    errors = []

    def work(t):
        try:
            for _ in range(5):
                for r in range(rows):
                    out[t, r] = _mixed(rng._reopen(7, rng.DOMAIN_FIELD, r,
                                                   r % 3))
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(threads_n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for t in range(threads_n):
        assert np.array_equal(out[t], serial)


def _plain_sums(values):
    n, total, total_sq = 0, 0.0, 0.0
    for v in values:
        n += 1
        total = total + v
        total_sq = total_sq + v * v
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)


def test_moments_add_is_the_plain_loop_bit_for_bit():
    gen = rng.stream(3, 99)
    scalars = [float(v) for v in gen.standard_normal(17)]
    acc = rng.Moments()
    for v in scalars:
        acc.add(v)
    mean, se = acc.mean_se()
    assert type(mean) is float and type(se) is float
    assert (mean, se) == tuple(float(v) for v in _plain_sums(scalars))
    vectors = list(gen.standard_normal((17, 3)))
    acc = rng.Moments(cross=True)
    cross = np.zeros((3, 3))
    for v in vectors:
        acc.add(v)
        cross += np.outer(v, v)
    mean, se = acc.mean_se()
    want_mean, want_se = _plain_sums(vectors)
    assert mean.tolist() == want_mean.tolist()
    assert se.tolist() == want_se.tolist()
    assert acc.cross.tolist() == cross.tolist()
    mean, var = acc.mean_var()
    assert var.tolist() == (acc.total_sq / 17 - mean * mean).tolist()


def test_moments_clamp_a_rounding_negative_variance():
    # three equal values 0.1 give total_sq/n - mean^2 = -1.7e-18
    acc = rng.Moments()
    for _ in range(3):
        acc.add(0.1)
    assert acc.total_sq / 3 - (acc.total / 3) ** 2 < 0.0
    assert acc.mean_var()[1] == 0.0
    assert acc.mean_se()[1] == 0.0
    vec = rng.Moments()
    for _ in range(3):
        vec.add(np.array([0.1, 1.0]))
    assert vec.mean_se()[1].tolist() == [0.0, 0.0]


def test_second_moment_se():
    assert rng.second_moment_se(2.0, 8) == 1.0
    assert rng.second_moment_se(np.array([1.0, 3.0]), 50).tolist() == [
        0.2, 0.6000000000000001]


_FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the path pool needs the fork start method")


def _indexed(i):
    # item i with the process that made it
    return i, os.getpid()


@_FORK
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_in_order_keeps_the_order_around_the_threshold(monkeypatch, offset):
    monkeypatch.setattr(rng, "workers", lambda: 2)
    n = rng.POOL_MIN_ITEMS + offset
    items = list(rng._in_order(_indexed, n))
    assert [i for i, _ in items] == list(range(n))
    pids = {pid for _, pid in items}
    # below the threshold the caller's process makes every item; from it
    # on, only the workers do (one of the two may take every chunk)
    if offset < 0:
        assert pids == {os.getpid()}
    else:
        assert 1 <= len(pids) <= 2 and os.getpid() not in pids
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def _pool_closed_by_its_owner():
    # a running Pool that is only garbage-collected warns "unclosed running
    # multiprocessing pool"; the generator must end it itself
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
    assert not [w for w in caught if w.category is ResourceWarning]
    assert multiprocessing.active_children() == []


@_FORK
def test_in_order_ends_its_pool_when_closed_early(monkeypatch):
    monkeypatch.setattr(rng, "workers", lambda: 2)
    with _pool_closed_by_its_owner():
        items = rng._in_order(_indexed, 4 * rng.POOL_MIN_ITEMS)
        assert next(items)[0] == 0
        assert len(multiprocessing.active_children()) == 2
        items.close()


@_FORK
def test_in_order_ends_its_pool_when_the_consumer_raises(monkeypatch):
    monkeypatch.setattr(rng, "workers", lambda: 2)
    with _pool_closed_by_its_owner(), pytest.raises(ZeroDivisionError):
        for i, _ in rng._in_order(_indexed, 4 * rng.POOL_MIN_ITEMS):
            if i == 5:
                1 / 0


def _in_order_here(n):
    return list(rng._in_order(_indexed, n))


@_FORK
def test_in_order_runs_serially_inside_a_daemonic_process(monkeypatch):
    # a pool worker may not start children, so a path loop called inside a
    # caller's own pool runs in that worker
    monkeypatch.setattr(rng, "workers", lambda: 2)
    n = 4 * rng.POOL_MIN_ITEMS
    with multiprocessing.get_context("fork").Pool(1) as pool:
        items = pool.apply(_in_order_here, (n,))
    assert [i for i, _ in items] == list(range(n))
    assert len({pid for _, pid in items}) == 1
    assert items[0][1] != os.getpid()


class _WorkerFault(ValueError):
    pass


@_FORK
def test_in_order_raises_a_worker_exception_with_its_type(monkeypatch):
    monkeypatch.setattr(rng, "workers", lambda: 2)
    n = 4 * rng.POOL_MIN_ITEMS
    bad = n - 3   # in the last chunk, made by a worker

    def item(i):
        if i == bad:
            raise _WorkerFault(f"item {i} in process {os.getpid()}")
        return i

    seen = []
    with pytest.raises(_WorkerFault, match=f"item {bad} in process") as info:
        for i in rng._in_order(item, n):
            seen.append(i)
    assert int(str(info.value).rsplit(" ", 1)[1]) != os.getpid()
    assert seen == list(range(len(seen))) and len(seen) < bad
    assert multiprocessing.active_children() == []

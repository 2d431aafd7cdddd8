"""The hot-loop opener must draw exactly what a fresh stream draws."""

import sys
import threading

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

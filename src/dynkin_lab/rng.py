"""Counter-based random streams (Philox) with a fixed lane layout.

A stream address is ``(seed; domain, replicate, component)``.  The address
words occupy the three *high* words of the 256-bit Philox counter, so draws
within a stream only advance the low word: distinct addresses can never
overlap until 2**64 blocks have been consumed from one stream.  Variates
within a stream are indexed by their draw position (mode index, step index,
...), which the calling modules document per use.

Because the stream is a pure function of its address, replication-parallel
sampling is reproducible regardless of batching, thread scheduling or the
processes the work is split over.

``stream`` returns a fresh Generator that the caller may hold as long as it
likes.  Building one costs more than a short stream's draws, so the three
hot loops (one stream per path, per torus step, per field amplitude row)
open theirs with the private ``_reopen`` instead.  It resets the calling
thread's single Philox to the address, with an empty buffer, and returns
that thread's one Generator: the draws are those of ``stream`` at the same
address, but the next ``_reopen`` on the same thread restarts it.  Use it
only in a loop that uses up each stream before it opens the next one, and
never hand its Generator to code that might open another.

``Moments`` is the one Monte Carlo accumulator: count, elementwise sum and
sum of squares (and optionally outer products) of the values added.

``workers`` is the one core count: the ensemble fill's threads and the path
pool's processes.  The private ``_in_order`` takes one function of the path
index, runs it over contiguous chunks of paths in forked worker processes
and yields its values in path order, so an accumulator fed from it adds the
same values in the same order as the serial loop.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

DOMAIN_FIELD = 1
DOMAIN_TORUS = 2
DOMAIN_PATH = 3

_MASK64 = (1 << 64) - 1


def stream(seed: int, domain: int, replicate: int = 0,
           component: int = 0) -> np.random.Generator:
    """Generator for the (seed; domain, replicate, component) substream."""
    counter = np.array([0, replicate & _MASK64, component & _MASK64,
                        domain & _MASK64], dtype=np.uint64)
    bitgen = np.random.Philox(key=np.uint64(seed & _MASK64), counter=counter)
    return np.random.Generator(bitgen)


_local = threading.local()
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def _reopen(seed: int, domain: int, replicate: int = 0,
            component: int = 0) -> np.random.Generator:
    """This thread's Generator, reset to the start of the given substream."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, replicate & _MASK64, component & _MASK64,
                              domain & _MASK64],
                  "key": [seed & _MASK64, 0]},
        "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0,
        "uinteger": 0}
    return gen


def workers() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Runs of fewer items stay serial.  On a 2-core host a fork pool of two
# workers costs about 10 ms to start, feed and stop, and the two take about
# 0.6 of the serial time.  The package's path loops take 0.05 ms (a beta = 2
# walk at dt = 1e-3 and alpha = 2) to 1.4 ms (a 513-mode torus path of 60
# steps) a path.  At 64 paths the pool costs the first about 10 ms and saves
# the second about 30 ms; above that the cost stays the start-up while the
# saving grows with the run.
POOL_MIN_ITEMS = 64
# chunks per worker: enough to even out paths of random length, few enough
# that each result message carries many paths
_CHUNKS_PER_WORKER = 4


def _in_order(item, n: int):
    """Yield ``item(0), ..., item(n - 1)`` in order.

    ``item(p)`` is a pure function of the path index p (its own stream) and
    returns a picklable value.  With at least ``POOL_MIN_ITEMS`` items and
    two cores, contiguous chunks of indices run in a pool of forked
    processes, one per core, and the chunks are yielded in index order, so
    the caller sees exactly the serial sequence.  A fork child inherits
    ``item`` through the pool's initializer, so closures need no pickling.
    Hosts without ``fork``, and daemonic processes (which may not start
    children), run serially.  The pool ends with the generator: when it is
    used up or closed, or when a worker's exception reaches the caller.
    """
    procs = workers()
    if n >= POOL_MIN_ITEMS and procs > 1:
        # imported here: multiprocessing and its pool take ~15 ms to import,
        # which only pooled runs should pay
        import multiprocessing
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            m = procs * _CHUNKS_PER_WORKER
            bounds = [(n * k // m, n * (k + 1) // m) for k in range(m)]
            with multiprocessing.get_context("fork").Pool(
                    procs, _install, (item,)) as pool:
                for chunk in pool.imap(_run_chunk, bounds):
                    yield from chunk
            return
    yield from map(item, range(n))


def _install(item):
    # pool initializer, run once in each worker: the function lives on the
    # worker's own thread state, never on the parent's
    _local.item = item


def _run_chunk(bounds):
    lo, hi = bounds
    return [_local.item(p) for p in range(lo, hi)]


class Moments:
    """Count, sum and sum of squares of the values added, elementwise.

    With ``cross=True`` it also sums the outer products value x value.
    Variances read a rounding-negative value as 0; means and spreads are
    floats for scalar values and arrays otherwise.
    """

    def __init__(self, cross: bool = False):
        self.n, self.total, self.total_sq = 0, 0.0, 0.0
        self.cross = 0.0 if cross else None

    def add(self, value):
        self.n += 1
        self.total = self.total + value
        self.total_sq = self.total_sq + value * value
        if self.cross is not None:
            self.cross = self.cross + np.outer(value, value)

    def mean_var(self):
        """(mean, variance) of the values added."""
        mean = self.total / self.n
        var = np.maximum(self.total_sq / self.n - mean * mean, 0.0)
        return (mean, var) if np.ndim(var) else (float(mean), float(var))

    def mean_se(self):
        """(mean, standard error of the mean)."""
        mean, var = self.mean_var()
        se = np.sqrt(var / self.n)
        return (mean, se) if np.ndim(se) else (mean, float(se))


def second_moment_se(var, n: int):
    """Standard error var * sqrt(2/n) of a Gaussian second moment from n
    draws."""
    return var * math.sqrt(2.0 / n)

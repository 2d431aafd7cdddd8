"""Counter-based random streams (Philox) with a fixed lane layout.

A stream address is ``(seed; domain, replicate, component)``.  The address
words occupy the three *high* words of the 256-bit Philox counter, so draws
within a stream only advance the low word: distinct addresses can never
overlap until 2**64 blocks have been consumed from one stream.  Variates
within a stream are indexed by their draw position (mode index, step index,
...), which the calling modules document per use.

Because the stream is a pure function of its address, replication-parallel
sampling is reproducible regardless of batching or thread scheduling.

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
"""

from __future__ import annotations

import math
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

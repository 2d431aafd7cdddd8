"""Monte Carlo for symmetric stable paths and their box-kernel local times.

The simulated process is the symmetrised one: a PathConfig(beta, c) walks
the process whose exponent is 2 c |xi|^beta (the model stable(beta, c) seen
through its replica kernel).  Increments over dt are exact symmetric-stable
draws via the Chambers-Mallows-Stuck transform, and local time at level y is
the box occupation estimator

    Lhat = (dt / 2 eps) * #{ steps j : |X_{j dt} - y| < eps },

counted over left endpoints j = 0..n-1.  A PathConfig is the walk's law,
its discretisation and its stream, nothing else: path p of an experiment
draws from (cfg.seed, DOMAIN_PATH, p).  The start is the experiment's own
argument: x for ``resolvent_check``, a for ``corollary_test`` and
``discounted_split_check``, x0 for ``mean_local_times``.  When an
exponential horizon S(alpha) is involved it is drawn first and the path is
simulated for ceil(S/dt) steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .kernels import u_alpha
from .levy import LevyModel


class BandwidthError(ValueError):
    """The local-time bandwidth does not resolve the path."""


class OccupancyError(RuntimeError):
    """A conditioning bin has too few paths for a meaningful average."""


@dataclass(frozen=True)
class PathConfig:
    """Walk of the symmetrised process with exponent 2 c |xi|^beta, its
    step dt, box half-width eps and the seed of its path streams."""

    beta: float
    c: float
    dt: float
    eps: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not 1.0 < self.beta <= 2.0:
            raise ValueError("beta must lie in (1,2]: local times exist "
                             "exactly when the existence integral converges")
        if not self.c > 0:
            raise ValueError("scale c must be > 0")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("eps must be > 0")

    @property
    def bandwidth(self) -> float:
        """Default eps = dt^(1/beta), the spatial scale of one step."""
        return (self.eps if self.eps is not None
                else self.dt ** (1.0 / self.beta))

    @property
    def box_weight(self) -> float:
        """dt / (2 eps): the local time one left endpoint in a box adds."""
        return self.dt / (2.0 * self.bandwidth)

    def line_model(self) -> LevyModel:
        return LevyModel.stable(self.beta, self.c)


def stable_increment(beta: float, c: float, dt: float,
                     gen: np.random.Generator, size: int) -> np.ndarray:
    """Symmetric stable increments of the symmetrised process over dt.

    Chambers-Mallows-Stuck: with V uniform on (-pi/2, pi/2) and W standard
    exponential,

        X = sigma * sin(beta V) / cos(V)^(1/beta)
                  * (cos((1-beta) V) / W)^((1-beta)/beta),

    sigma = (2 c dt)^(1/beta); beta = 1 reduces to sigma * tan(V) and
    beta = 2 to sigma * 2 sin(V) sqrt(W), which agrees with the general
    form to a few ulps.  Draw order within the stream: all uniforms, then
    all exponentials.
    """
    if not 0.0 < beta <= 2.0:
        raise ValueError("beta must lie in (0,2]")
    if not (c > 0 and dt > 0):
        raise ValueError("c and dt must be > 0")
    sigma = (2.0 * c * dt) ** (1.0 / beta)
    v = math.pi * (gen.random(size) - 0.5)
    if beta == 1.0:
        out = sigma * np.tan(v)
    else:
        w = gen.standard_exponential(size)
        if beta == 2.0:
            out = sigma * (2.0 * np.sin(v) * np.sqrt(w))
        else:
            out = sigma * (np.sin(beta * v) / np.cos(v) ** (1.0 / beta)
                           * (np.cos((1.0 - beta) * v) / w)
                           ** ((1.0 - beta) / beta))
    return out


def simulate_path(cfg: PathConfig, n_steps: int, gen: np.random.Generator,
                  x0: float = 0.0) -> np.ndarray:
    """Positions X_0..X_n including the start point X_0 = x0."""
    inc = stable_increment(cfg.beta, cfg.c, cfg.dt, gen, size=n_steps)
    out = np.empty(n_steps + 1)
    out[0] = x0
    np.cumsum(inc, out=out[1:])
    out[1:] += x0
    return out


def _check_bandwidth(eps: float, med: float):
    """Reject eps out of proportion with the step length med."""
    if not eps > 0:
        raise BandwidthError("eps must be > 0")
    if med == 0.0:
        return  # degenerate (injected) path: any eps resolves it
    if eps >= 2.0 * med:
        raise BandwidthError(
            f"eps={eps:.4g} >= 2 x step length {med:.4g}: over-smoothing")
    if eps <= med / 4.0:
        raise BandwidthError(
            f"eps={eps:.4g} <= step length / 4 = {med / 4.0:.4g}: below the "
            "step resolution")


def _count(positions: np.ndarray, y: float, eps: float, stop=None) -> int:
    """The one box rule: the left endpoints positions[:-1][:stop] (None:
    all of them) inside (y-eps, y+eps)."""
    return int(np.count_nonzero(np.abs(positions[:-1][:stop] - y) < eps))


def _finite(**values):
    """Reject a non-finite argument before any path is drawn."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


def local_time(positions: np.ndarray, dt: float, y: float,
               eps: float) -> float:
    """Box occupation estimate dt/(2 eps) * _count(positions, y, eps) of
    the local time at level y; the bandwidth guards reject eps out of
    proportion with the step scale."""
    positions = np.asarray(positions, dtype=float)
    _check_bandwidth(eps, float(np.median(np.abs(np.diff(positions))))
                     if positions.size >= 2 else 0.0)
    return dt / (2.0 * eps) * _count(positions, y, eps)


def _paths(cfg: PathConfig, paths: int, x0: float, reduce,
           alpha: float | None = None, n_steps: int = 0):
    """The occupation pass every estimator shares; yields reduce(S, X).

    Path p starts at x0 and owns the stream (cfg.seed, DOMAIN_PATH, p); the
    paths run through ``rng._in_order``, so a long run is split over worker
    processes, which send back only the reduced values, and still yields
    path 0, 1, ... in order.  With alpha given, that stream first draws the
    exponential clock S(alpha) and the path runs ceil(S/dt) >= 1 steps;
    otherwise it runs n_steps and S is None.  X holds the positions
    X_0 = x0, ..., X_n, so ``_count(X, y, eps, stop)`` is a box count; the
    estimators combine such integers before they apply cfg.box_weight.

    The bandwidth guard compares eps with the scale of one step of the
    law, (2 c dt)^(1/beta), so its verdict does not depend on the seed.
    The median |step| is that scale times the median of |standard
    symmetric beta-stable|, which falls from 1 (Cauchy) to
    sqrt(2) Phi^-1(3/4) = 0.954 (beta = 2) on the allowed (1, 2]: within
    5 % of the scale, against the guard's factors 2 and 1/4.
    """
    if paths < 2:
        raise ValueError("need at least 2 paths")
    _check_bandwidth(cfg.bandwidth,
                     (2.0 * cfg.c * cfg.dt) ** (1.0 / cfg.beta))

    def path(p):
        gen = rng._reopen(cfg.seed, rng.DOMAIN_PATH, p)
        s_time, n = None, n_steps
        if alpha is not None:
            s_time = gen.standard_exponential() / alpha
            n = max(1, int(math.ceil(s_time / cfg.dt)))
        return reduce(s_time, simulate_path(cfg, n, gen, x0))

    return rng._in_order(path, paths)


@dataclass(frozen=True)
class ResolventResult:
    """Discounted-resolvent comparison int_0^inf e^{-alpha s} E L_s ds.

    ``estimate`` is mean(Lhat at the exponential time S(alpha)) / alpha and
    ``exact`` is u_alpha(x,y) / alpha; the underlying normalisation identity
    is u_alpha(x,y) = alpha * int_0^inf e^{-alpha s} E^x L^y_s ds.
    ``mean_at_exponential_time`` is that sample mean of Lhat itself.
    """

    estimate: float
    exact: float
    stderr: float
    paths: int
    eps: float
    dt: float
    mean_at_exponential_time: float

    @property
    def verdict(self) -> bool:
        """|estimate - exact| <= 3 se + 5 % of exact."""
        return abs(self.estimate - self.exact) <= 3.0 * self.stderr \
            + 0.05 * self.exact


def resolvent_check(cfg: PathConfig, alpha: float, x: float, y: float,
                    paths: int) -> ResolventResult:
    """Monte Carlo check of the local-time normalisation against u_alpha;
    every path starts at x and the boxes sit at y."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    _finite(alpha=alpha, x=x, y=y)
    w, eps = cfg.box_weight, cfg.bandwidth
    sums = rng.Moments()
    for count in _paths(cfg, paths, x, lambda _, pos: _count(pos, y, eps),
                        alpha=alpha):
        sums.add(w * count)
    mean, se = sums.mean_se()
    exact = u_alpha(cfg.line_model(), alpha, x - y) / alpha
    return ResolventResult(mean / alpha, exact, se / alpha, paths, eps,
                           cfg.dt, mean)


@dataclass(frozen=True)
class CorollaryResult:
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    n_long: int
    n_short: int
    verdict: bool


def corollary_test(cfg: PathConfig, alpha: float, a: float, b: float,
                   t: float, paths: int,
                   min_bin_count: int = 500) -> CorollaryResult:
    """Conditional comparison of L^a - L^b at an exponential time.

    Each path starts at a, draws its own S(alpha) first, runs to
    ceil(S/dt) steps and contributes Lhat^a - Lhat^b to the bin
    {S >= t} (lhs) or {S < t} (rhs).  Verdict: rhs <= lhs + 2 combined se.

    Why this direction: with D_s = L^a_s - L^b_s for a path started at a,
    E^a D_s = int_0^s (pbar_r(0) - pbar_r(a - b)) dr is nondecreasing in s
    because the symmetric stable density pbar_r peaks at 0.  S is
    memoryless, so E[D_S | S < t] <= E D_t <= E D_{t+S} = E[D_S | S >= t].

    Exact values, with psi = 2 c |xi|^beta and h = |a - b|:

        lhs = (1/pi) int_0^inf (1 - cos h xi)
                  [(1 - e^{-t psi})/psi + e^{-t psi}/(alpha + psi)] dxi
        rhs = (1/pi) int_0^inf (1 - cos h xi)
                  [(1 - e^{-t(alpha+psi)})/(alpha + psi)
                   - e^{-alpha t}(1 - e^{-t psi})/psi] / (1 - e^{-alpha t}) dxi

    and their mean weighted by P(S >= t) = e^{-alpha t} is
    u_alpha(0) - u_alpha(a - b) for cfg.line_model().
    """
    if not (alpha > 0 and t > 0):
        raise ValueError("alpha and t must be > 0")
    _finite(alpha=alpha, t=t, a=a, b=b)
    w, eps = cfg.box_weight, cfg.bandwidth
    bins = {True: rng.Moments(), False: rng.Moments()}
    for long_clock, diff in _paths(cfg, paths, a, lambda s, pos: (
            s >= t, _count(pos, a, eps) - _count(pos, b, eps)), alpha=alpha):
        bins[long_clock].add(w * diff)
    n_long, n_short = bins[True].n, bins[False].n
    if n_long < max(1, min_bin_count) or n_short < max(1, min_bin_count):
        raise OccupancyError(
            f"conditioning bins have {n_long} (S>=t) and {n_short} (S<t) "
            f"paths; need >= {max(1, min_bin_count)} each -- increase paths "
            "or choose t nearer the typical exponential time")
    lhs, lhs_se = bins[True].mean_se()
    rhs, rhs_se = bins[False].mean_se()
    verdict = rhs <= lhs + 2.0 * math.sqrt(lhs_se**2 + rhs_se**2)
    return CorollaryResult(lhs, rhs, lhs_se, rhs_se, n_long, n_short,
                           verdict)


@dataclass(frozen=True)
class DiscountedSplitResult:
    """Discounted-increment comparison of L^a - L^b across the time t.

    With D_s = Lhat^a_s - Lhat^b_s accumulated along a path killed at the
    independent exponential time S(alpha), the geometric tail estimate
    behind the smoothness comparison states

        E[D_S - D_{S ^ t}]  <=  e^{-alpha t}/(1 - e^{-alpha t}) * E[D_{S ^ t}],

    i.e. the mean difference accumulated after t is dominated by the
    discounted mean accumulated before t.  ``margin`` is the Monte Carlo
    mean of (rhs - lhs) per path with its standard error.
    """

    lhs: float
    rhs: float
    margin: float
    margin_se: float
    paths: int

    @property
    def verdict(self) -> bool:
        return self.margin >= -2.0 * self.margin_se


def discounted_split_check(cfg: PathConfig, alpha: float, a: float, b: float,
                           t: float, paths: int) -> DiscountedSplitResult:
    """Monte Carlo check of the pre/post-t discounted local-time estimate;
    every path starts at a."""
    if not (alpha > 0 and t > 0):
        raise ValueError("alpha and t must be > 0")
    _finite(alpha=alpha, t=t, a=a, b=b)
    w, eps = cfg.box_weight, cfg.bandwidth
    ct = math.exp(-alpha * t) / (-math.expm1(-alpha * t))
    k_t = int(math.ceil(t / cfg.dt))

    def reduce(_, pos):  # the left endpoints before step k_t, and after
        return (_count(pos, a, eps, k_t) - _count(pos, b, eps, k_t),
                _count(pos[k_t:], a, eps) - _count(pos[k_t:], b, eps))
    sums = rng.Moments()
    for pre, post in _paths(cfg, paths, a, reduce, alpha=alpha):
        sums.add(np.array([w * pre, w * post, ct * (w * pre) - w * post]))
    (_, lhs, margin), (_, _, margin_se) = sums.mean_se()
    return DiscountedSplitResult(float(lhs), ct * float(sums.total[0]) / paths,
                                 float(margin), float(margin_se), paths)


def mean_local_times(cfg: PathConfig, x0: float, levels, times, paths: int):
    """Ensemble means of Lhat at several levels and horizons, from x0.

    Returns (means, stderrs) with shape (len(times), len(levels)); all paths
    run to max(times) and the estimates at earlier horizons reuse the same
    trajectories (exact local-time additivity makes the restriction exact).
    """
    levels, times = list(levels), list(times)
    if not times:
        raise ValueError("need at least one horizon")
    if not all(t > 0 for t in times):
        raise ValueError("horizons must be > 0")
    _finite(x0=x0, levels=levels, times=times)
    steps = [int(round(t / cfg.dt)) for t in times]
    if any(abs(s * cfg.dt - t) > 1e-9 * t for s, t in zip(steps, times)):
        raise ValueError("times must be integer multiples of dt")
    w, eps = cfg.box_weight, cfg.bandwidth
    sums = rng.Moments()
    for counts in _paths(cfg, paths, x0, lambda _, pos: [
            [_count(pos, y, eps, stop) for y in levels] for stop in steps],
            n_steps=max(steps)):
        sums.add(w * np.array(counts))
    return sums.mean_se()

"""Exact-in-law Fourier-mode simulation of the heat/cable equation on a torus.

Each complex mode n (frequency k_n = 2 pi n / L) is an independent
Ornstein-Uhlenbeck recursion driven by the white-noise projection:

    u_n <- exp(-(RePsi(k_n) + alpha/2) dt) u_n + zeta_n,

where the complex innovation variance is chosen so every grid-point marginal
is exact in law for any step size (the update is Duhamel's formula, not an
Euler scheme).  alpha = 0 is the heat equation; alpha > 0 the cable
equation.  Only modes n >= 0 are stored; the field sum folds the negative
modes in as conjugates of the positive ones.  The zero mode starts at 0,
decays by a real factor and gets an imaginary innovation scaled by 0.0, so
Im u_0 stays +0.0: Hermitian symmetry comes from the step's own
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .kernels import u_alpha, window
from .levy import LevyModel, re_psi


@dataclass(frozen=True)
class TorusConfig:
    circumference: float
    n_modes: int          # total mode count, odd (symmetric mode set)
    alpha: float

    def __post_init__(self):
        if not 0 < self.circumference < math.inf:
            raise ValueError("circumference must be > 0 and finite")
        if not isinstance(self.n_modes, (int, np.integer)):
            raise ValueError(f"n_modes must be an integer, got "
                             f"{self.n_modes!r}")
        if self.n_modes < 1 or self.n_modes % 2 == 0:
            raise ValueError("n_modes must be odd (symmetric mode set)")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")

    @property
    def half(self) -> int:
        return (self.n_modes - 1) // 2

    @property
    def frequencies(self) -> np.ndarray:
        """k_n = 2 pi n / L for n = 0..half."""
        return 2.0 * math.pi * np.arange(self.half + 1) / self.circumference


def _rates(cfg: TorusConfig, model: LevyModel) -> np.ndarray:
    """alpha + 2 RePsi(k_n) for n = 0..half: the decay rate of E|u_n|^2."""
    return cfg.alpha + 2.0 * np.asarray(re_psi(model, cfg.frequencies),
                                        dtype=float)


def _fold(cfg: TorusConfig, weights: np.ndarray, lag: float) -> float:
    """w_0 + 2 sum_{n>=1} w_n cos(k_n lag): the Hermitian mode sum."""
    k = cfg.frequencies
    return float(weights[0]
                 + 2.0 * np.sum(weights[1:] * np.cos(k[1:] * lag)))


class StepOperator:
    """Exact-in-law update by a step of length dt, for one (config, model)."""

    def __init__(self, cfg: TorusConfig, model: LevyModel, dt: float):
        if not 0 < dt < math.inf:
            raise ValueError("dt must be > 0 and finite")
        self.cfg = cfg
        rate = _rates(cfg, model)
        self.decay = np.exp(-0.5 * rate * dt)
        w = window(rate, dt)
        # complex modes: Var(Re) = Var(Im) = w / (2L); the real zero mode
        # carries the full variance w / L
        self.sigma_zero = math.sqrt(w[0] / cfg.circumference)
        # per-normal scale of the step's draws (re, im of mode 0, re, im of
        # mode 1, ...); 0.0 zeroes the imaginary innovation of mode 0
        self.noise_scale = np.repeat(np.sqrt(w / (2.0 * cfg.circumference)),
                                     2)
        self.noise_scale[:2] = self.sigma_zero, 0.0

    def apply(self, modes: np.ndarray, seed: int, path: int,
              step: int) -> np.ndarray:
        """The complex modes n = 0..half one step after ``modes``, which
        are those of path ``path`` after ``step`` steps under ``seed``."""
        # stream layout: one substream per (path, step); draws 2(half+1)
        # normals whose consecutive pairs are the real/imag innovations of
        # modes 0..half (the imaginary draw of the real zero mode is unused)
        z = rng._reopen(seed, rng.DOMAIN_TORUS, path, step).standard_normal(
            2 * self.cfg.half + 2)
        z *= self.noise_scale
        modes = self.decay * modes
        modes += z.view(np.complex128)
        return modes


def _paths(op: StepOperator, seed: int, paths: int, stops, reduce):
    """The per-path loop every torus ensemble shares.

    Yields, for each path p, the list of ``reduce(modes)`` after each step
    count in the increasing ``stops``.  A path is its complex mode array of
    shape (half + 1,): it starts at zero, and step k of it is
    ``op.apply(modes, seed, p, k)``.  The paths run through
    ``rng._in_order``: a long run is split over worker processes, which
    send back only the reduced values, and the paths still come in order.
    """
    def path(p):
        modes, seen = np.zeros(op.cfg.half + 1, dtype=complex), []
        for start, stop in zip((0, *stops), stops):
            for k in range(start, stop):
                modes = op.apply(modes, seed, p, k)
            seen.append(reduce(modes))
        return seen

    return rng._in_order(path, paths)


def _probes(cfg: TorusConfig, x: np.ndarray):
    """The field sum at the points x, as a function of the modes.

    With u_{-n} = conj(u_n) and a real u_0, sum_n u_n exp(i k_n x) over
    n = -half..half is the half-spectrum sum
    2 sum_{n>=0} (Re u_n cos(k_n x) - Im u_n sin(k_n x)) with the zero
    mode's cosine halved.
    """
    phases = np.outer(cfg.frequencies, x)
    cos_b = np.cos(phases)
    sin_b = np.sin(phases)
    cos_b[0] *= 0.5

    def values(modes: np.ndarray) -> np.ndarray:
        return 2.0 * (modes.real @ cos_b - modes.imag @ sin_b)

    return values


def snapshot(modes: np.ndarray, cfg: TorusConfig, x) -> np.ndarray:
    """Field values u(x) = sum_n u_n exp(i k_n x) for x in [0, L), from the
    complex modes u_n, n = 0..half.

    The stored half spectrum is Hermitian exactly when Im u_0 = 0; any
    other mode array raises ValueError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0) or np.any(x >= cfg.circumference):
        raise ValueError(f"x must lie in [0, {cfg.circumference})")
    if modes[0].imag != 0.0:
        raise ValueError(f"Hermitian symmetry violated: Im u_0 = "
                         f"{modes[0].imag:.3e}")
    return _probes(cfg, x)(modes)


def mode_variance(cfg: TorusConfig, model: LevyModel, t: float) -> np.ndarray:
    """Exact E|u_n(t)|^2 for n = 0..half (limit t/L at zero rate)."""
    return window(_rates(cfg, model), t) / cfg.circumference


def stationary_point_variance(cfg: TorusConfig, model: LevyModel) -> float:
    """(1/L) sum_n 1/(alpha + 2 RePsi(k_n)): the torus stationary variance."""
    if cfg.alpha <= 0:
        raise ValueError("stationary variance needs alpha > 0")
    return _fold(cfg, 1.0 / (_rates(cfg, model) * cfg.circumference), 0.0)


def point_covariance_exact(cfg: TorusConfig, model: LevyModel, t: float,
                           lag: float) -> float:
    """Exact E[u(t,x) u(t,x+lag)] = (1/L) sum_n w_n(t) cos(k_n lag)."""
    return _fold(cfg, mode_variance(cfg, model, t), lag)


def image_sum_correction(cfg: TorusConfig, model: LevyModel) -> float:
    """Relative wrap-around bias of the torus kernel versus the line kernel.

    Estimated from the first image: 2 u_alpha(L) / u_alpha(0).  Runs only
    for alpha > 0.
    """
    if cfg.alpha <= 0:
        raise ValueError("image-sum bound applies to the cable case")
    u0 = u_alpha(model, cfg.alpha, 0.0)
    u_l = u_alpha(model, cfg.alpha, cfg.circumference, rel_tol=1e-7)
    return 2.0 * abs(u_l) / u0


@dataclass(frozen=True)
class MomentRow:
    t: float
    x: float
    mean: float
    var: float
    exact_var: float
    stderr: float
    paths: int


@dataclass(frozen=True)
class CovarianceRow:
    t: float
    x1: float
    x2: float
    cov: float
    exact_cov: float


@dataclass(frozen=True)
class MomentReport:
    rows: list[MomentRow]
    covariances: list[CovarianceRow]
    stationarity_gap: float | None      # |var(2t) - var(t)| at the probe
    stationarity_gap_se: float | None   # paired s.e. of u(2t)^2 - u(t)^2
    stationarity_bound: float | None    # e^{-alpha t} * stationary variance
    image_correction: float | None


def run_moments(cfg: TorusConfig, model: LevyModel, t_end: float,
                paths: int, probes, seed: int = 0) -> MomentReport:
    """Ensemble moments at probe points, observed at t_end/2 and t_end.

    Each path takes one exact step per observation gap; the stationarity
    diagnostic compares the observed point variance at the two probe times
    against the relaxation bound exp(-alpha t_end/2) * stationary variance.
    """
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be > 0 and finite")
    if paths < 2:
        raise ValueError("need at least 2 paths")
    probes = np.atleast_1d(np.asarray(probes, dtype=float))
    if not np.isfinite(probes).all():
        raise ValueError(f"probes must be finite, got {probes}")
    op = StepOperator(cfg, model, 0.5 * t_end)
    acc = [rng.Moments(), rng.Moments(cross=True)]
    paired = rng.Moments()  # per path: u(t_end)^2 - u(t_end/2)^2, 1st probe
    image = None
    if cfg.alpha > 0:
        image = image_sum_correction(cfg, model)
        if image > 0.01:
            raise ValueError(
                f"torus too small: image-sum correction {image:.3%} "
                "exceeds 1% of the kernel at the origin")
    for values in _paths(op, seed, paths, (1, 2), _probes(cfg, probes)):
        for moments, value in zip(acc, values):
            moments.add(value)
        paired.add(values[1][0] ** 2 - values[0][0] ** 2)
    rows = []
    probe_var = []      # the variance at the first probe, per stop
    for t, moments in zip((0.5 * t_end, t_end), acc):
        mean, var = moments.mean_var()
        exact = point_covariance_exact(cfg, model, t, 0.0)
        se = rng.second_moment_se(var, paths)
        probe_var.append(float(var[0]))
        for j, xj in enumerate(probes):
            rows.append(MomentRow(t, float(xj), float(mean[j]),
                                  float(var[j]), exact, float(se[j]), paths))
    cov = acc[1].cross / paths - np.outer(mean, mean)   # mean at t_end
    covs = []
    for i in range(probes.size):
        for j in range(i + 1, probes.size):
            lag = abs(float(probes[j] - probes[i]))
            covs.append(CovarianceRow(
                t_end, float(probes[i]), float(probes[j]), float(cov[i, j]),
                point_covariance_exact(cfg, model, t_end, lag)))
    gap = gap_se = bound = None
    if cfg.alpha > 0:
        gap = abs(probe_var[1] - probe_var[0])
        gap_se = paired.mean_se()[1]
        bound = (math.exp(-cfg.alpha * 0.5 * t_end)
                 * stationary_point_variance(cfg, model))
    return MomentReport(rows, covs, gap, gap_se, bound, image)

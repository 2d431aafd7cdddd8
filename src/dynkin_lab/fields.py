"""Spectral synthesis of the stationary-in-space Gaussian fields.

Real midpoint-frequency synthesis: a field with one-sided spectral mass
2 f(xi) dxi is realised as

    F(x) = sum_k sqrt(2 f(xi_k) dxi) (A_k cos(xi_k x) + B_k sin(xi_k x))

with independent standard normal amplitudes per mode drawn from
counter-based streams, so a sample is a pure function of
(seed, replicate, grid, parameters).  The V and S components use disjoint
amplitude streams and eta = V + S holds exactly, pointwise, by construction.
Derivative fields reuse the S amplitudes with the n-fold cos/sin phase rule,
making them the exact spectral derivatives of the synthesised S.

A gridded field is one FFT when its grid allows it: with x_j = x0 + j dx
and N = 2 pi / (dx dxi) an integer to rounding, xi_k x_j = xi_k x0 +
2 pi (k + 1/2) j / N, so

    F(x_j) = Re[exp(i pi j / N) sum_k c_k exp(2 pi i k j / N)],
    c_k = amp_k (A_k - i B_k) exp(i (xi_k x0 + phase)),

and the sum is an N-point inverse FFT read at j mod N.  The FFT is taken
only when N log2 N <= (points x modes); every other x takes the dense
cos/sin product, which stays the oracle.  Ensembles at probe points use
the dense product, a block of rows at a time; each amplitude row is filled
in place from its own stream, with the rows of a block split over one
thread per core.  A row's values do not depend on the thread that fills
it, so ensembles are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .kernels import spectral_envelope
from .levy import LevyModel, re_psi
from .quadrature import integral_to_infinity

# the part table: amplitude stream components per field density kind.  An
# eta drawn whole (ensemble_values with t=None) reads its own pair (6, 7),
# which no sample function draws.  cli.run_synth's ensemble and
# verify.check_eta_covariance read eta there, as does an eta
# scaling_exponent_ensemble with t=None
_COMPONENTS = {"V": (0, 1), "S": (2, 3), "U": (4, 5), "eta": (6, 7)}
# the line kernel whose spectral envelope each field's density is
_KERNEL_OF = {"eta": "potential", "V": "varV", "S": "varS", "U": "varU"}
# the mode count of SpectralGrid.default
DEFAULT_MODES = 1 << 14
# doubles per amplitude buffer of ensemble_values: a block of rows holds
# _BLOCK_DOUBLES // n_modes of them (512 on a 4096-mode grid), at least one
_BLOCK_DOUBLES = 2**21


@dataclass(frozen=True)
class SpectralGrid:
    """Truncated midpoint discretisation of the one-sided frequency axis.

    Midpoint frequencies (k + 1/2) dxi, k = 0..n_modes-1 stay strictly
    positive, which keeps the heat-field density finite at the origin.
    """

    cutoff: float
    n_modes: int

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError("cutoff must be > 0")
        if self.n_modes < 2:
            raise ValueError("need at least 2 modes")

    @property
    def delta_xi(self) -> float:
        return self.cutoff / self.n_modes

    @property
    def frequencies(self) -> np.ndarray:
        return (np.arange(self.n_modes) + 0.5) * self.delta_xi

    @staticmethod
    def default(model: LevyModel, alpha: float = 1.0) -> "SpectralGrid":
        beta_eff = model.tail_exponent()
        cutoff = 256.0 * (alpha + 1.0) ** (1.0 / beta_eff)
        return SpectralGrid(cutoff=cutoff, n_modes=DEFAULT_MODES)


def spectral_density(kind: str, model: LevyModel, alpha: float | None,
                     t: float | None, xi, derivative_order: int = 0):
    """Two-sided spectral density f(xi) of the selected field.

    f = env / (2 pi), with env the matching kernel's spectral envelope
    (eta: potential, V: varV, S: varS, U: varU), so f_V + f_S = f_eta and
    f_U has the limit t/(2 pi) at RePsi = 0.  A derivative order n
    multiplies by xi^(2n).
    """
    if kind not in _KERNEL_OF:
        raise ValueError(f"unknown field kind {kind!r}")
    env = spectral_envelope(_KERNEL_OF[kind], model, alpha, t)
    xi_arr = np.asarray(xi, dtype=float)
    out = env(xi_arr) / (2.0 * math.pi)
    if derivative_order:
        out = out * xi_arr ** (2 * derivative_order)
    if np.ndim(xi) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class BiasReport:
    """Covariance bias of truncation and discretisation, per sample."""

    truncation_tail: float
    riemann_error: float

    @property
    def total(self) -> float:
        return self.truncation_tail + self.riemann_error


@dataclass(frozen=True)
class FieldSample:
    kind: str
    alpha: float | None
    t: float | None
    derivative_order: int
    x: np.ndarray
    values: np.ndarray
    seed: int
    replicate: int
    grid: SpectralGrid
    bias: BiasReport


def discretisation_bias(kind: str, model: LevyModel, alpha: float | None,
                        t: float | None, grid: SpectralGrid,
                        derivative_order: int = 0) -> BiasReport:
    """Tail bound beyond the cutoff plus a Riemann (midpoint) refinement gap.

    Raises NonConvergenceError when the density has no integrable tail,
    which is the per-sample signature of the existence condition failing.
    """
    def dens(x):
        return spectral_density(kind, model, alpha, t, x,
                                derivative_order=derivative_order)

    tail2, _ = integral_to_infinity(
        dens, grid.cutoff, rel_tol=1e-6, context=f"{kind} spectral tail")
    coarse = 2.0 * np.sum(dens(grid.frequencies)) * grid.delta_xi
    fine_grid = SpectralGrid(grid.cutoff, 2 * grid.n_modes)
    fine = 2.0 * np.sum(dens(fine_grid.frequencies)) * fine_grid.delta_xi
    return BiasReport(truncation_tail=2.0 * float(tail2),
                      riemann_error=abs(float(fine - coarse)))


def _amplitudes(kind, model, alpha, t, grid, order=0):
    """Mode amplitudes sqrt(2 f(xi) dxi) xi^n of the n-th derivative."""
    amp = np.sqrt(2.0 * spectral_density(kind, model, alpha, t,
                                         grid.frequencies) * grid.delta_xi)
    return amp * grid.frequencies ** order if order else amp


def _mode_normals(seed, replicate, component, n_modes, out=None):
    # mode k is the k-th variate of the (seed, replicate, component) stream;
    # with out= the row is filled in place, and the fill releases the GIL
    return rng._reopen(seed, rng.DOMAIN_FIELD, replicate,
                       component).standard_normal(n_modes, out=out)


def _derivative_order(n) -> int:
    if n < 0 or n != int(n):
        raise ValueError(
            f"derivative_order must be a non-negative integer, got {n!r}")
    return int(n)


def _fft_length(x: np.ndarray, grid: SpectralGrid) -> int | None:
    """N when x is the grid x0 + j 2 pi / (N dxi) to rounding and an N-point
    FFT costs no more than the dense product; otherwise None."""
    n = x.size
    if x.ndim != 1 or n < 2 or not x[-1] > x[0]:
        return None
    ratio = 2.0 * math.pi * (n - 1) / ((x[-1] - x[0]) * grid.delta_xi)
    # the cost rule bounds N by points x modes, so round() sees a finite N
    if not 2 <= ratio <= n * grid.n_modes:
        return None
    n_fft = round(ratio)
    if n_fft * math.log2(n_fft) > n * grid.n_modes:
        return None
    dx = 2.0 * math.pi / (n_fft * grid.delta_xi)
    err = float(np.max(np.abs(x - (x[0] + np.arange(n) * dx))))
    tol = 4.0 * np.finfo(float).eps * (abs(x[0]) + abs(x[-1]))
    return n_fft if err <= tol else None


def _synthesise(amp, grid: SpectralGrid, x, a, b, phase=0.0):
    n_fft = _fft_length(x, grid)
    if n_fft is None:
        return _synthesise_dense(amp, grid.frequencies, x, a, b, phase)
    c = amp * (a - 1j * b) * np.exp(1j * (grid.frequencies * x[0] + phase))
    # modes k and k + N share the root of unity exp(2 pi i k j / N)
    c = np.pad(c, (0, -c.size % n_fft)).reshape(-1, n_fft).sum(axis=0)
    sums = np.fft.ifft(c, norm="forward")
    j = np.arange(x.size)
    return (np.exp(1j * math.pi * j / n_fft) * sums[j % n_fft]).real


def _synthesise_dense(amp, freqs, x, a, b, phase=0.0):
    arg = np.outer(x, freqs) + phase
    return (np.cos(arg) @ (amp * a)) + (np.sin(arg) @ (amp * b))


def _sample(kind, model, alpha, t, grid, x, seed, replicate, order=0,
            draws=None, label=None) -> FieldSample:
    """One part of a draw: its amplitudes, its two streams (or the given
    draws of them), phase n*pi/2 and its bias, named kind or label."""
    if draws is None:
        draws = [_mode_normals(seed, replicate, comp, grid.n_modes)
                 for comp in _COMPONENTS[kind]]
    vals = _synthesise(_amplitudes(kind, model, alpha, t, grid, order), grid,
                       x, *draws, phase=order * math.pi / 2.0)
    bias = discretisation_bias(kind, model, alpha, t, grid,
                               derivative_order=order)
    return FieldSample(label or kind, alpha, t, order, x, vals, seed,
                       replicate, grid, bias)


def sample_joint(model: LevyModel, alpha: float, t: float,
                 grid: SpectralGrid, x: np.ndarray, seed: int,
                 replicate: int = 0, derivative_order: int | None = None):
    """One joint draw of (V, S, eta[, S derivative]) on the spatial grid x.

    V and S use independent amplitude streams; eta is the exact pointwise
    sum.  The optional derivative field reuses the S draws with phase
    n*pi/2 and amplitude factor xi^n; n must be a non-negative integer.
    On a uniform grid that the FFT rule accepts, each field is one FFT.
    """
    if not (alpha > 0 and t > 0):
        raise ValueError("need alpha > 0 and t > 0")
    if derivative_order is not None:
        n = _derivative_order(derivative_order)
    x = np.asarray(x, dtype=float)
    s_draws = [_mode_normals(seed, replicate, comp, grid.n_modes)
               for comp in _COMPONENTS["S"]]
    v = _sample("V", model, alpha, t, grid, x, seed, replicate)
    s = _sample("S", model, alpha, t, grid, x, seed, replicate,
                draws=s_draws)
    eta = FieldSample("eta", alpha, t, 0, x, v.values + s.values, seed,
                      replicate, grid,
                      discretisation_bias("eta", model, alpha, t, grid))
    if derivative_order is None:
        return v, s, eta, None
    deriv = _sample("S", model, alpha, t, grid, x, seed, replicate, order=n,
                    draws=s_draws, label="S_derivative")
    return v, s, eta, deriv


def sample_heat_field(model: LevyModel, t: float, grid: SpectralGrid,
                      x: np.ndarray, seed: int,
                      replicate: int = 0) -> FieldSample:
    """One draw of the heat solution snapshot U(t, .) on the grid x."""
    if not t > 0:
        raise ValueError("t must be > 0")
    return _sample("U", model, None, t, grid, np.asarray(x, dtype=float),
                   seed, replicate)


def ensemble_values(model: LevyModel, kind: str, alpha: float | None,
                    t: float | None, grid: SpectralGrid, points: np.ndarray,
                    seed: int, replicates: int,
                    derivative_order: int = 0) -> np.ndarray:
    """(replicates x len(points)) matrix of field values at probe points.

    Row r realises the same spectral sum as sample_joint /
    sample_heat_field with replicate=r at the same points (identical
    amplitude draws; values agree to reduction-order rounding, ~1e-12).
    The one exception is kind eta with t=None: eta's law reads no t, so
    it is drawn whole from its own stream pair, ``_COMPONENTS["eta"]``,
    which no sample function draws.  That is half the normals of V + S;
    cli.run_synth and verify.check_eta_covariance draw eta this way.  With
    t given, eta is V + S, row for row that of sample_joint.
    ``derivative_order`` applies to kind S only; any other kind with a
    nonzero order raises ValueError.

    Rows go through in blocks of max(1, _BLOCK_DOUBLES // n_modes), so
    each of the two amplitude buffers holds at most 16 MiB unless a single
    row is longer.  Each block is filled in place, one row per amplitude
    stream, with the rows split over one thread per core; then one matrix
    product per part.  A row is a pure function of its stream, so the
    split cannot move a bit: identical calls are bit-identical for any
    worker count, and the block length only regroups the matrix
    products.
    """
    n = _derivative_order(derivative_order)
    if kind not in ("eta", "V", "S", "U"):
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if n and kind != "S":
        raise ValueError(f"derivative_order applies to kind S, not {kind!r}")
    points = np.asarray(points, dtype=float)
    # eta has the same law for every t; with no t given, draw it from its
    # own spectral density instead of as V + S
    parts = ("V", "S") if kind == "eta" and t is not None else (kind,)
    mats = []
    for part in parts:
        amp = _amplitudes(part, model, alpha, t, grid, n)[:, None]
        arg = np.outer(grid.frequencies, points) + n * math.pi / 2.0
        mats.append((_COMPONENTS[part], amp * np.cos(arg),
                     amp * np.sin(arg)))
    # imported here: it costs ~10 ms, which every import of the package
    # would pay
    from concurrent.futures import ThreadPoolExecutor

    out = np.empty((replicates, points.size))
    k = grid.n_modes
    block = max(1, _BLOCK_DOUBLES // k)
    a = np.empty((min(block, replicates), k))
    b = np.empty_like(a)
    workers = rng.workers()

    def fill(rows, lo, ca, cb):
        for r in rows:
            _mode_normals(seed, r, ca, k, out=a[r - lo])
            _mode_normals(seed, r, cb, k, out=b[r - lo])

    with ThreadPoolExecutor(workers) as pool:
        for lo in range(0, replicates, block):
            hi = min(lo + block, replicates)
            step = -(-(hi - lo) // workers)
            acc = np.zeros((hi - lo, points.size))
            for (ca, cb), cmat, smat in mats:
                jobs = [pool.submit(fill, range(r, min(r + step, hi)), lo,
                                    ca, cb) for r in range(lo, hi, step)]
                for job in jobs:
                    job.result()
                acc += a[:hi - lo] @ cmat + b[:hi - lo] @ smat
            out[lo:hi] = acc
    return out


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    stderr: float
    lags: np.ndarray
    structure: np.ndarray
    structure_se: np.ndarray
    band: tuple[float, float]


def _band_for(kind: str, model: LevyModel, alpha, t,
              grid: SpectralGrid) -> tuple[float, float]:
    low = 3.0 * (2.0 * math.pi / grid.cutoff)
    target = (1.0 / (2.0 * t)) if kind == "U" else alpha
    lo_f, hi_f = 1e-9, grid.cutoff
    for _ in range(200):
        mid = math.sqrt(lo_f * hi_f)
        if 2.0 * re_psi(model, mid) < target:
            lo_f = mid
        else:
            hi_f = mid
    return low, 0.25 / hi_f


def _validate_lags(lags: np.ndarray, band: tuple[float, float]):
    if lags.size < 8:
        raise ValueError("need at least 8 lags")
    if np.log10(lags.max() / lags.min()) < 1.5:
        raise ValueError("lags must span at least 1.5 decades")
    low, high = band
    if lags.min() < low or lags.max() > high:
        raise ValueError(
            f"lag range [{lags.min():.4g}, {lags.max():.4g}] outside the "
            f"resolved band [{low:.4g}, {high:.4g}]")


def _fit_loglog(lags, per_rep, band) -> ScalingFit:
    """OLS slope of log D on log lag, D the mean of the replicate rows of
    per_rep, with a delta-method se from their scatter (0 for one row)."""
    reps = per_rep.shape[0]
    d_mean = per_rep.mean(axis=0)
    d_se = per_rep.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 \
        else np.zeros(lags.size)
    log_r = np.log(lags)
    log_d = np.log(d_mean)
    xc = log_r - log_r.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * log_d) / sxx)
    se_log = np.divide(d_se, d_mean, out=np.zeros_like(d_se),
                       where=d_mean > 0)
    stderr = float(np.sqrt(np.sum((xc / sxx) ** 2 * se_log**2)))
    return ScalingFit(slope, stderr, lags, d_mean, d_se, band)


# the probe bases of scaling_exponent_ensemble
_PROBE_BASES = (0.0, 7.0, 14.0, 21.0)


def scaling_exponent_ensemble(model: LevyModel, kind: str, alpha, t,
                              grid: SpectralGrid, lags, seed: int,
                              replicates: int) -> ScalingFit:
    """Ensemble increment-scaling fit from probe pairs (base, base + lag).

    Equivalent in law to fitting over full gridded samples but evaluates the
    field only at the O(bases x lags) points the fit needs, which keeps
    large-replicate runs cheap.  The bases are ``_PROBE_BASES``.
    """
    lags = np.asarray(lags, dtype=float)
    band = _band_for(kind, model, alpha, t, grid)
    _validate_lags(lags, band)
    bases = np.asarray(_PROBE_BASES)
    points = np.unique(np.concatenate([bases + r
                                       for r in np.concatenate([[0.0], lags])
                                       ]))
    vals = ensemble_values(model, kind, alpha, t, grid, points, seed,
                           replicates)
    base_ix = np.searchsorted(points, bases)
    per_rep = np.empty((replicates, lags.size))
    for li, r in enumerate(lags):
        off_ix = np.searchsorted(points, bases + r)
        d = vals[:, off_ix] - vals[:, base_ix]
        per_rep[:, li] = np.mean(d * d, axis=1)
    return _fit_loglog(lags, per_rep, band)


def ensemble_covariance(vals: np.ndarray, j: int) -> tuple[float, float]:
    """Covariance of columns 0 and j of a centred ensemble, with its s.e.

    The mean of the products over the replicates (rows), and the standard
    error std(products) / sqrt(replicates).
    """
    prod = vals[:, 0] * vals[:, j]
    return (float(np.mean(prod)),
            float(np.std(prod) / math.sqrt(vals.shape[0])))


def structure_function_exact(kind: str, model: LevyModel, alpha, t,
                             grid: SpectralGrid, lags) -> np.ndarray:
    """Mean-square increments implied by the discrete synthesis grid."""
    lags = np.asarray(lags, dtype=float)
    f = spectral_density(kind, model, alpha, t, grid.frequencies)
    w = 2.0 * f * grid.delta_xi
    return np.array([float(np.sum(w * 2.0 * (1.0 - np.cos(grid.frequencies
                                                          * r))))
                     for r in lags])

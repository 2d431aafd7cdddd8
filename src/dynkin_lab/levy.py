"""Symmetric Levy processes seen through the real part of their exponent.

Every formula in this package depends on the process only through
RePsi(xi) >= 0, where E exp(i xi X_t) = exp(-t Psi(xi)).  Two model kinds
are supported:

* ``stable(beta, c)``     RePsi(xi) = c |xi|^beta, beta in (0, 2]
* ``khintchine(sigma2, nu)``
                          RePsi(xi) = sigma2 xi^2 / 2
                                      + int (1 - cos(z xi)) nu(dz)

with nu a symmetric jump measure given by its density on (0, inf).  The
Gaussian coefficient convention sigma2 xi^2 / 2 is the classical one.
``brownian(kappa)``, RePsi(xi) = kappa xi^2, is ``stable(2, kappa)``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import (_GL_NODES, _GL_WEIGHTS, OSC_LAG, OSC_WINDOW,
                         NonConvergenceError, _averaged_limit,
                         _geometric_tail, adaptive, cosine_transform,
                         dyadic_integral_to_zero, integral_to_infinity)

SATISFIED = "satisfied-numerically"
VIOLATED = "violated-numerically"
INCONCLUSIVE = "inconclusive"

# Numerical verdict thresholds (limits are not decidable from finitely many
# evaluations; these are the documented decision rules).
_HAWKES_GROWTH_MIN = 1.25   # required trend growth across the top decade
_HAWKES_FLAT = 1.05         # growth below this counts as bounded
_QUASI_RATIO_MIN = 0.05     # admissible lower bound for ReTPsi(2z)/sup
_KG_BOUNDED_FACTOR = 20.0   # small-eps ratios within this of the median


@dataclass(frozen=True)
class LevyMeasure:
    """Symmetric jump measure, represented by its density on (0, inf).

    Construction verifies the integrability certificate
    int_0^1 z^2 rho(z) dz < inf and int_1^inf rho(z) dz < inf by quadrature;
    models whose density fails either check are rejected.
    """

    density: Callable[[np.ndarray], np.ndarray]
    z_min: float
    z_max: float
    small_moment: float = field(default=0.0, compare=False)
    tail_weight: float = field(default=0.0, compare=False)
    # jump exponents by xi; owned by the measure so that no value can
    # outlive it or be read by another measure.  re_psi alone reads and
    # writes it, and nothing empties it
    _exponents: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @staticmethod
    def from_density(rho: Callable, z_min: float = 0.0,
                     z_max: float = math.inf) -> "LevyMeasure":
        """Measure with density rho on (z_min, z_max) and zero outside.

        rho must be elementwise.  The measure's ``density(z)`` returns a
        fresh, writable float array of z's shape, sharing no memory with
        z, that is zero outside the open support; callers may scale it in
        place.  A NaN or negative value of rho raises ValueError.  The
        support mask is built only when z.min() or z.max() is not inside.
        """
        if not 0 <= z_min < z_max:
            raise ValueError("support must satisfy 0 <= z_min < z_max")

        def clipped(z):
            z = np.asarray(z, dtype=float)
            # a NaN makes min or max NaN and fails the test
            if z.size and z.min() > z_min and z.max() < z_max:
                # every point inside: rho's own values, with no gather or
                # scatter; copied only when rho returned a scalar, a view
                # of z or a read-only array
                out = vals = np.asarray(rho(z), dtype=float)
                if (vals.shape != z.shape or not vals.flags.writeable
                        or np.may_share_memory(vals, z)):
                    out = np.array(np.broadcast_to(vals, z.shape))
            else:
                inside = (z > z_min) & (z < z_max)
                out = np.zeros_like(z)
                vals = np.asarray(rho(z[inside]), dtype=float)
                out[inside] = vals
            # one comparison pass: NaN fails it too
            if not np.all(vals >= 0):
                raise ValueError(
                    "jump density must be nonnegative and not NaN")
            return out

        try:
            small = _integral(lambda z: z * z * clipped(z), z_min,
                              min(1.0, z_max), 1e-10,
                              "second moment of jump density near 0")
        except NonConvergenceError as exc:
            raise ValueError(
                f"jump density is not integrable against z^2 near 0: {exc}"
            ) from exc
        try:
            tail = _integral(clipped, max(1.0, z_min), z_max, 1e-10,
                             "jump density tail")
        except NonConvergenceError as exc:
            raise ValueError(
                f"jump density has non-integrable tail: {exc}") from exc
        return LevyMeasure(clipped, z_min, z_max, small, tail)

    @staticmethod
    def power_law(coeff: float, beta: float, z_min: float = 0.0,
                  z_max: float = math.inf) -> "LevyMeasure":
        """rho(z) = coeff * z^(-1-beta) on (z_min, z_max)."""
        if not coeff >= 0:
            raise ValueError("power-law coefficient must be >= 0")
        if z_min == 0.0 and beta >= 2.0:
            raise ValueError("power-law index beta must be < 2 when the "
                             "density reaches the origin")

        def rho(z):
            out = z ** (-1.0 - beta)
            out *= coeff
            return out

        return LevyMeasure.from_density(rho, z_min, z_max)

    @staticmethod
    def from_table(z: np.ndarray, rho: np.ndarray) -> "LevyMeasure":
        """Tabulated density with log-linear interpolation, zero outside."""
        z = np.asarray(z, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if z.ndim != 1 or z.size < 2 or rho.shape != z.shape:
            raise ValueError("table needs matching 1-d z and rho arrays "
                             "with at least two rows")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(rho))):
            raise ValueError("table z and rho must be finite")
        if np.any(np.diff(z) <= 0) or z[0] <= 0:
            raise ValueError("table abscissae must be positive increasing")
        if np.any(rho < 0):
            raise ValueError("table densities must be nonnegative")
        logz = np.log(z)
        # log-linear in z; zero density rows interpolate through a tiny floor
        logr = np.log(np.maximum(rho, 1e-300))

        def interp(zz):
            zz = np.asarray(zz, dtype=float)
            out = np.exp(np.interp(np.log(np.maximum(zz, 1e-300)),
                                   logz, logr))
            return np.where(out <= 1e-290, 0.0, out)

        return LevyMeasure.from_density(interp, z[0], z[-1])


def stable_jump_coefficient(beta: float, c: float) -> float:
    """Coefficient of the power-law density matching RePsi = c |xi|^beta.

    Uses int_0^inf (1 - cos u) u^(-1-beta) du = (pi/2)/(Gamma(1+beta)
    sin(pi beta/2)).  At beta = 2 the model is purely Gaussian, but the
    float sin(pi) is 1.2e-16, so this returns about 7.8e-17 c, not 0.
    """
    if not 0.0 < beta <= 2.0:
        raise ValueError("beta must lie in (0,2]")
    return (c * math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
            / math.pi)


@dataclass(frozen=True)
class LevyModel:
    kind: str
    beta: float = 0.0
    c: float = 0.0
    sigma2: float = 0.0
    nu: LevyMeasure | None = None
    # the stable model's certified canonical measure, built on first use
    _canonical: list = field(default_factory=list, init=False, repr=False,
                             compare=False)

    @staticmethod
    def brownian(kappa: float) -> "LevyModel":
        if not kappa > 0:
            raise ValueError("diffusion coefficient kappa must be > 0")
        return LevyModel.stable(2.0, kappa)

    @staticmethod
    def stable(beta: float, c: float) -> "LevyModel":
        if not 0.0 < beta <= 2.0:
            raise ValueError("beta must lie in (0,2]")
        if not c > 0:
            raise ValueError("scale c must be > 0")
        return LevyModel("stable", beta=beta, c=c)

    @staticmethod
    def khintchine(sigma2: float, nu: LevyMeasure) -> "LevyModel":
        if not sigma2 >= 0:
            raise ValueError("gaussian coefficient sigma2 must be >= 0")
        return LevyModel("khintchine", sigma2=sigma2, nu=nu)

    def canonical_measure(self) -> LevyMeasure:
        """The jump measure behind the model, for Feller functionals;
        stable beta = 2 (so brownian) models have none (ValueError)."""
        if self.kind == "khintchine":
            assert self.nu is not None
            return self.nu
        if self.beta == 2.0:
            raise ValueError("K and G are undefined without a jump measure "
                             "(brownian, or stable with beta = 2)")
        if not self._canonical:
            self._canonical.append(LevyMeasure.power_law(
                stable_jump_coefficient(self.beta, self.c), self.beta))
        return self._canonical[0]

    def has_gaussian_part(self) -> bool:
        return ((self.kind == "stable" and self.beta == 2.0)
                or (self.kind == "khintchine" and self.sigma2 > 0.0))

    def tail_exponent(self) -> float:
        """Estimated growth order of RePsi at large xi (used for defaults)."""
        if self.kind == "stable":
            return self.beta
        if self.sigma2 > 0:
            return 2.0
        hi, lo = re_psi(self, 256.0), re_psi(self, 64.0)
        if lo <= 0 or hi <= 0:
            return 2.0
        return float(np.clip(math.log(hi / lo) / math.log(4.0), 0.1, 2.0))


def _integral(f: Callable, lo: float, hi: float, rel_tol: float,
              context: str) -> float:
    """int_lo^hi f for a nonnegative f on (part of) a measure's support:
    dyadic shells toward an origin singularity when lo = 0, octaves from
    2 lo when hi = inf, and ``adaptive`` otherwise; 0 when hi <= lo."""
    if hi <= lo:
        return 0.0
    if lo == 0.0:
        return dyadic_integral_to_zero(f, hi, rel_tol=rel_tol,
                                       context=context)
    if hi == math.inf:
        return integral_to_infinity(f, lo, rel_tol=rel_tol, context=context)[0]
    return adaptive(f, lo, hi, rel_tol=rel_tol)


def _half_periods(f: Callable, edges: np.ndarray) -> np.ndarray:
    """One Gauss-Legendre panel of f on each [edges[i], edges[i+1]],
    vectorised; a descending pair of edges gives the panel's negative."""
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    halves = 0.5 * np.diff(edges)[:, None]
    return halves[:, 0] * (f(mids + halves * _GL_NODES[None, :])
                           @ _GL_WEIGHTS)


def _jump_exponent(nu: LevyMeasure, xi: float, rel_tol: float) -> float:
    """2 int_0^inf (1 - cos(z xi)) rho(z) dz, split at z = 1/xi.

    The near field uses 2 sin^2(z xi / 2) (no cancellation) with dyadic
    refinement toward any origin singularity.  A short bridge carries the
    integral to lo = max(pi/xi, z_min).  Past lo:

    * a finite support of at most 20,000 half periods is summed directly,
      one Gauss-Legendre panel per half period, so the kinks of a table
      fall inside panels;
    * a longer finite support is the far mass (``adaptive``) minus the
      cosine part, whose half-period partial sums are taken to their
      limit by ``quadrature._averaged_limit`` from both ends, over
      ``_OSC_PANELS`` panels forward from lo and as many backward from
      z_max.  The two limits add up to the whole when rho is smooth
      between the two windows, where the middle cancels; the averaging
      bounds go unchecked, since they cannot see rho there;
    * an infinite support is the far mass (``_integral``) minus the
      cosine part: ``adaptive`` from lo to the next half period k pi/xi,
      then ``cosine_transform`` of rho(k pi/xi + y), whose sign is
      (-1)^k.  Its tolerance is set by the mass, since it can be far
      smaller.

    The value depends only on (nu, xi, rel_tol); nothing is cached here.
    """
    if xi == 0.0:
        return 0.0
    split = min(1.0 / xi, nu.z_max)

    def near_f(z):
        s = np.sin(0.5 * z * xi)
        return 2.0 * s * s * nu.density(z)

    def far_f(z):
        return (1.0 - np.cos(z * xi)) * nu.density(z)

    def osc_f(z):
        return np.cos(z * xi) * nu.density(z)

    near = _integral(near_f, nu.z_min, split, rel_tol,
                     "jump exponent near field")
    far = 0.0
    edge = min(math.pi / xi, nu.z_max)
    # no interval may straddle z_min, where the density jumps: adaptive
    # cannot see a jump that its nodes miss
    bridge = max(split, nu.z_min)
    if edge > bridge:
        far += adaptive(far_f, bridge, edge, rel_tol=rel_tol)
    lo = max(edge, nu.z_min)
    if nu.z_max == math.inf:
        mass = _integral(nu.density, lo, math.inf, rel_tol,
                         "jump measure far mass")
        k = math.floor(lo * xi / math.pi) + 1
        start = k * math.pi / xi
        rest, _ = cosine_transform(
            lambda y: nu.density(start + y), xi, rel_tol=rel_tol,
            abs_tol=rel_tol * mass, context="jump exponent far field")
        far += mass - (adaptive(osc_f, lo, start, rel_tol=rel_tol)
                       + (-1) ** k * rest)
    elif edge < nu.z_max:
        n_half = int(math.ceil((nu.z_max - lo) * xi / math.pi))
        if n_half <= 20_000:
            far += float(np.sum(_half_periods(far_f, np.minimum(
                lo + (math.pi / xi) * np.arange(n_half + 1), nu.z_max))))
        else:
            steps = (math.pi / xi) * np.arange(_OSC_PANELS + 1)
            fwd = np.cumsum(_half_periods(osc_f, lo + steps))
            back = np.cumsum(-_half_periods(osc_f, nu.z_max - steps))
            osc = (_averaged_limit(fwd, _OSC_PANELS)[0]
                   + _averaged_limit(back, _OSC_PANELS)[0])
            far += adaptive(nu.density, lo, nu.z_max,
                            rel_tol=rel_tol) - float(osc)
    return max(2.0 * (near + far), 0.0)


# Panels of the batched jump exponent, in u = z xi on (0, inf)
_NEAR_SHELLS = 48    # dyadic shells [2^-(m+1), 2^-m] of (0, 1]
_MASS_OCTAVES = 32   # octaves [pi 2^k, pi 2^(k+1)] of the far mass
_OSC_PANELS = 48     # half periods [k pi, (k+1) pi], k = 1..48
_CHUNK_DOUBLES = 2**16
# nodes and weights on [-1, 1] of one panel, then of its two halves
_SPLIT_NODES = np.concatenate([_GL_NODES, 0.5 * (_GL_NODES - 1.0),
                               0.5 * (_GL_NODES + 1.0)])[:, None, None]
_SPLIT_WEIGHTS = np.concatenate([_GL_WEIGHTS, 0.5 * _GL_WEIGHTS,
                                 0.5 * _GL_WEIGHTS])[:, None, None]
_NEAR, _MASS, _OSC = 0, 1, 2
# each thread's node buffer of _CHUNK_DOUBLES, made on first use
_workspace = threading.local()


def _nodes(lo: np.ndarray, hi: np.ndarray, out=None) -> np.ndarray:
    """Nodes of the panels [lo, hi] (shape (rows, panels)) and of their
    halves, node-major: shape (48, rows, panels), 16 per panel; written
    into ``out`` when given."""
    u = np.multiply(0.5 * (hi - lo), _SPLIT_NODES, out=out)
    u += 0.5 * (lo + hi)
    return u


def _factors(u: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """What multiplies g(u) on each kind of panel: 2 sin^2(u/2) in the
    near field, 1 in the far mass, cos u in the oscillatory part."""
    s = np.sin(0.5 * u)
    return np.where(kind == _NEAR, 2.0 * s * s,
                    np.where(kind == _MASS, 1.0, np.cos(u)))


@functools.lru_cache(maxsize=1)
def _panel_table():
    """The shared u-panels (lo, hi, kind) and the factors at their nodes;
    built on first use and read-only."""
    shells = 0.5 ** np.arange(_NEAR_SHELLS + 1)
    octaves = math.pi * 2.0 ** np.arange(_MASS_OCTAVES + 1)
    halves = math.pi * np.arange(1, _OSC_PANELS + 2)
    lo = np.concatenate([shells[1:], [1.0], octaves[:-1], halves[:-1]])
    hi = np.concatenate([shells[:-1], [math.pi], octaves[1:], halves[1:]])
    kind = np.repeat([_NEAR, _MASS, _OSC],
                     [_NEAR_SHELLS + 1, _MASS_OCTAVES, _OSC_PANELS])
    table = (lo, hi, kind, _factors(_nodes(lo[None], hi[None]), kind))
    for a in table:
        a.flags.writeable = False
    return table


def _shrinking_tail(j: np.ndarray):
    """``quadrature._geometric_tail`` past the last term of each run of
    shrinking terms along the last axis of j; a run whose last term is 0
    has an exact zero tail.  Returns (tail, uncertainty, ok)."""
    last, prev, prev2 = j[..., -1], j[..., -2], j[..., -3]
    with np.errstate(divide="ignore", invalid="ignore"):
        tail, unc, ok = _geometric_tail(last, last / prev, prev / prev2)
    zero = last == 0.0
    return np.where(zero, 0.0, tail), np.where(zero, 0.0, unc), ok | zero


def _jump_exponents(nu: LevyMeasure, xis: np.ndarray,
                    rel_tol: float) -> np.ndarray:
    """``_jump_exponent`` at many xi > 0 at once.  A pure batch: nu's
    cache is neither read nor written here, since ``re_psi`` alone owns it.

    With u = z xi and g(u) = rho(u/xi)/xi, the exponent is

        2 [ int_0^pi 2 sin^2(u/2) g du + int_pi^inf g du
            - int_pi^inf cos(u) g du ],

    so every row shares one set of u-panels: dyadic shells of (0, 1] and
    the bridge [1, pi] (the near field), octaves from pi (the far mass)
    and half periods from pi (the oscillatory part).  Panels are clipped
    per row to the support [z_min xi, z_max xi]; the trigonometric
    factors of the unclipped ones are computed once for all rows.  Each
    panel is a Gauss-Legendre panel and its two halves, and rows go
    through in chunks of at most ``_CHUNK_DOUBLES`` nodes, written into
    one buffer that each thread keeps for all its calls.  The buffer is
    off the thread-local while this call uses it, so a density that
    itself calls ``re_psi`` makes its own.  A row is accepted when, with
    tol = rel_tol times its value:

    * on every panel the halves agree with the whole panel within tol,
      as in ``adaptive``;
    * the near shells toward 0 (when z_min = 0) and the far-mass octaves
      (when z_max = inf) end in a geometric tail whose last two ratios
      agree below ``RATIO_CAP`` and whose uncertainty is within tol, as
      in ``integral_to_infinity``; a positive z_min xi must lie above
      the last shell, and a finite z_max xi inside the half periods, so
      that no tail is needed there;
    * with z_max = inf, the repeated averaging of ``cosine_transform``
      over the last half periods has its bound within tol; with a finite
      z_max the oscillatory sum is complete.

    Each row's arithmetic is its own, so a value depends only on
    (nu, xi, rel_tol).  Rows that fail a test (a kinked tabulated
    density, compact support at large xi) go to the per-point
    ``_jump_exponent``, which stays the reference.
    """
    lo, hi, kind, shared = _panel_table()
    # the panels must hold the support edges: z_min xi above the last
    # shell, and z_max xi inside the half periods or else z_min xi below
    # the averaging window
    if nu.z_max != math.inf:
        fits = nu.z_max * xis <= hi[-1]
    else:
        fits = nu.z_min * xis <= math.pi * (_OSC_PANELS - OSC_WINDOW - OSC_LAG)
    if nu.z_min > 0.0:
        fits &= nu.z_min * xis >= lo[_NEAR_SHELLS - 1]
    out = np.full(xis.size, np.nan)
    if fits.any():
        rows = max(1, _CHUNK_DOUBLES // shared.size)
        buf, _workspace.buf = getattr(_workspace, "buf", None), None
        if buf is None:
            buf = np.empty(_CHUNK_DOUBLES)
        out[fits] = np.concatenate([
            _exponent_rows(nu, chunk, rel_tol, lo, hi, kind, shared, buf)
            for chunk in np.array_split(xis[fits], -(-fits.sum() // rows))])
        _workspace.buf = buf
    for i in np.flatnonzero(np.isnan(out)).tolist():
        out[i] = _jump_exponent(nu, float(xis[i]), rel_tol)
    return out


def _exponent_rows(nu, xi, rel_tol, lo, hi, kind, shared, buf):
    """Exponents of one chunk of rows; NaN marks a rejected row.  The
    nodes go into ``buf`` and the density's own output is worked on in
    place; on a support of (0, inf) no panel is clipped."""
    inv = (1.0 / xi)[:, None]
    clipped = nu.z_min > 0.0 or nu.z_max < math.inf
    row_lo, row_hi = lo, hi
    if clipped:
        z_lo, z_hi = nu.z_min * xi[:, None], nu.z_max * xi[:, None]
        row_lo, row_hi = np.clip(lo, z_lo, z_hi), np.clip(hi, z_lo, z_hi)
    nodes = buf[:xi.size * shared.size].reshape(-1, xi.size, lo.size)
    vals = np.asarray(nu.density(
        _nodes(row_lo * inv, row_hi * inv, out=nodes)), dtype=float)
    if clipped:
        r, p = np.nonzero((row_lo != lo) | (row_hi != hi))
        moved = vals[:, r, p] * _factors(
            _nodes(row_lo[r, p], row_hi[r, p])[:, 0], kind[p])
    vals *= shared
    if clipped:
        vals[:, r, p] = moved
    vals *= _SPLIT_WEIGHTS
    sums = vals.reshape(3, 16, *vals.shape[1:]).sum(axis=1)
    # g(u) = rho(u/xi)/xi: the 1/xi goes on the panel sums
    sums *= 0.5 * (row_hi - row_lo) * inv
    refined = sums[1] + sums[2]
    err = np.abs(refined - sums[0])
    n_near = _NEAR_SHELLS + 1
    n_mass = n_near + _MASS_OCTAVES
    near = refined[:, :n_near - 1]
    bridge = refined[:, n_near - 1]
    mass = refined[:, n_near:n_mass]
    terms = refined[:, n_mass:]

    # a positive z_min xi lies above the last shell, and a finite z_max xi
    # inside the half periods: those sums are complete, with no tail, and
    # go in as zero runs.  The two tails are one elementwise pass
    zero_run = np.zeros((xi.size, 3))
    tail, unc, tail_ok = _shrinking_tail(np.stack([
        near[:, -3:] if nu.z_min == 0.0 else zero_run,
        mass[:, -3:] if nu.z_max == math.inf else zero_run]))
    partials = np.cumsum(terms, axis=1)
    osc, osc_bound = partials[:, -1], 0.0
    if nu.z_max == math.inf:
        # the sums end at u = (_OSC_PANELS + 1) pi
        osc, osc_bound = _averaged_limit(partials, _OSC_PANELS + 1)
    half_value = near.sum(axis=1) + tail[0] + bridge + mass.sum(axis=1) \
        + tail[1] - osc
    with np.errstate(invalid="ignore"):
        tol = rel_tol * half_value
        ok = (tail_ok.all(axis=0) & np.all(unc <= tol, axis=0)
              & (osc_bound <= tol) & np.all(err <= tol[:, None], axis=1)
              & np.isfinite(half_value) & (half_value > 0.0))
    return np.where(ok, 2.0 * half_value, np.nan)


def re_psi(model: LevyModel, xi):
    """RePsi(xi); even, nonnegative, RePsi(0) = 0.  Vectorised over xi.

    The value depends on (model, xi) alone.  On khintchine models only
    ``re_psi`` reads and writes the measure's exponent cache, keyed by
    |xi|, and nothing empties it: the cold |xi| of one call go through
    ``_jump_exponents`` together at relative tolerance 1e-8, are stored
    in one update, and every point is read back.  A non-finite xi is a
    ValueError there.
    """
    arr = np.asarray(xi, dtype=float)
    # a scalar goes through the array loops too: numpy's scalar power can
    # round differently in the last bit
    a = np.abs(np.atleast_1d(arr))
    if model.kind == "stable":
        out = model.c * a ** model.beta
    else:
        assert model.nu is not None
        if not np.all(np.isfinite(a)):
            raise ValueError("xi must be finite")
        gauss = 0.5 * model.sigma2 * a * a
        cache = model.nu._exponents
        points = a.ravel().tolist()
        # set.difference(dict) probes the dict once per point; set - keys
        # would walk every key of the cache
        cold = sorted(set(points).difference(cache) - {0.0})
        if cold:
            cache.update(zip(cold, _jump_exponents(
                model.nu, np.array(cold), 1e-8).tolist()))
        jumps = np.array([cache[x] if x != 0.0 else 0.0
                          for x in points]).reshape(a.shape)
        out = gauss + jumps
    out = out.reshape(arr.shape)
    if np.ndim(xi) == 0:
        return float(out)
    return out


def feller_functions(model: LevyModel, eps: float) -> tuple[float, float]:
    """Truncated second moment K(eps) and tail mass G(eps) of the jumps.

    K(eps) = eps^-2 int_{|z|<=eps} z^2 nu(dz),  G(eps) = nu{|z| > eps},
    each by quadrature at relative tolerance 1e-9.  Defined for
    khintchine models and for stable models via their canonical measure;
    purely Gaussian models have no jump measure.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    nu = model.canonical_measure()
    k_val = _integral(lambda z: z * z * nu.density(z), nu.z_min,
                      min(eps, nu.z_max), 1e-9, "K(eps)")
    g_val = _integral(nu.density, max(eps, nu.z_min), nu.z_max, 1e-9,
                      "G(eps)")
    return k_val * (2.0 / (eps * eps)), 2.0 * g_val


def averaged_exponent(model: LevyModel, xi: float,
                      rel_tol: float = 1e-9) -> float:
    """Harmonic-analysis average (1/xi) int_0^xi RePsi(z) dz of the
    model's one RePsi, by ``adaptive`` at rel_tol.  The tolerance is the
    average's own: it does not reach RePsi."""
    if not xi > 0:
        raise ValueError("xi must be > 0")
    return adaptive(lambda z: re_psi(model, z), 0.0, xi,
                    rel_tol=rel_tol) / xi


@dataclass(frozen=True)
class ConditionReport:
    """Numerical existence/smoothness diagnostics for one model.

    ``dalang_integral`` is int dxi / (alpha + 2 RePsi) over the whole line
    (inf when numerically divergent); the trend tables support the tri-state
    verdicts in ``verdicts`` (keys: dalang, hawkes, quasi_increasing, kg).
    """

    alpha: float
    dalang_integral: float
    dalang_tail_bound: float
    hawkes_trend: list[tuple[float, float]]
    quasi_increasing_ratio: list[tuple[float, float]]
    kg_ratio: list[tuple[float, float]]
    verdicts: dict[str, str]


def _monotone_increasing(vals: np.ndarray) -> bool:
    return bool(np.all(np.diff(vals) > 0))


def condition_report(model: LevyModel, alpha: float,
                     xi_grid: np.ndarray | None = None,
                     eps_grid: np.ndarray | None = None) -> ConditionReport:
    """Existence integral and trend tables of one model, from ``re_psi``.

    The existence integral int dxi / (alpha + 2 RePsi) is
    ``integral_to_infinity`` on ``re_psi`` itself, and its tail bound is
    that quadrature's own.  A khintchine model with sigma2 = 0 and
    z_min > 0 is decided without quadrature: nu then has finite mass, so
    RePsi <= 4 nu(0, inf) is bounded, the integral diverges and the
    verdict is VIOLATED with value and bound inf.

    The hawkes table reads RePsi(xi)/log xi at the grid's xi > 1 and the
    quasi table RePsi(2 xi)/sup of RePsi on [xi, 2 xi], both from one
    ``re_psi`` call on 17 points of each [xi, 2 xi]; the kg table reads
    G(eps)/K(eps) from ``feller_functions``.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if xi_grid is None:
        xi_grid = np.geomspace(2.0, 2.0**24, 70)
    else:
        xi_grid = np.asarray(xi_grid, dtype=float)
    if eps_grid is None:
        eps_grid = np.geomspace(1e-6, 1.0, 49)
    else:
        eps_grid = np.asarray(eps_grid, dtype=float)
    if xi_grid.size == 0 or eps_grid.size == 0:
        raise ValueError("grids must be nonempty")
    if np.any(np.diff(xi_grid) <= 0) or np.any(np.diff(eps_grid) <= 0):
        raise ValueError("grids must be strictly increasing")

    verdicts: dict[str, str] = {}

    dalang_value = dalang_tail = math.inf
    if model.kind == "khintchine" and model.sigma2 == 0.0 \
            and model.nu.z_min > 0.0:
        # finite jump mass: RePsi is bounded (see above)
        verdicts["dalang"] = VIOLATED
    else:
        try:
            half, tail = integral_to_infinity(
                lambda xi: 1.0 / (alpha + 2.0 * re_psi(model, xi)), 0.0,
                rel_tol=1e-9, context="dalang integral")
            dalang_value, dalang_tail = 2.0 * half, 2.0 * tail
            verdicts["dalang"] = SATISFIED
        except NonConvergenceError as exc:
            verdicts["dalang"] = VIOLATED if exc.diverged else INCONCLUSIVE

    # RePsi on [xi, 2 xi] for every xi of the grid; geomspace sets both
    # endpoints exactly, so column 0 is RePsi(xi) and column -1 RePsi(2 xi)
    block = re_psi(model, np.geomspace(xi_grid, 2.0 * xi_grid, 17, axis=1))
    hawkes = [(float(x), float(p / math.log(x)))
              for x, p in zip(xi_grid, block[:, 0]) if x > 1.0]
    hvals = np.array([v for _, v in hawkes])
    habsc = np.array([x for x, _ in hawkes])
    top = hvals[habsc >= habsc[-1] / 10.0] if hawkes else hvals
    if top.size < 3:
        verdicts["hawkes"] = INCONCLUSIVE
    elif _monotone_increasing(top):
        if top[-1] >= _HAWKES_GROWTH_MIN * top[0]:
            verdicts["hawkes"] = SATISFIED
        elif top[-1] <= _HAWKES_FLAT * top[0]:
            verdicts["hawkes"] = VIOLATED
        else:
            verdicts["hawkes"] = INCONCLUSIVE
    elif bool(np.all(np.diff(top) < 0)):
        # monotone decay of ReTPsi/log xi: the growth condition fails
        verdicts["hawkes"] = VIOLATED
    else:
        verdicts["hawkes"] = INCONCLUSIVE

    quasi = [(float(z), float(num / sup) if sup > 0 else 1.0)
             for z, num, sup in zip(xi_grid, block[:, -1],
                                    np.max(block, axis=1))]
    qvals = np.array([v for _, v in quasi])
    qtop = qvals[xi_grid >= xi_grid[-1] / 10.0]
    if np.min(qvals) >= _QUASI_RATIO_MIN and qtop.size >= 2 \
            and qtop[-1] >= 0.5 * qtop[0]:
        verdicts["quasi_increasing"] = SATISFIED
    elif qtop.size >= 2 and qtop[-1] < 0.5 * qtop[0]:
        verdicts["quasi_increasing"] = VIOLATED
    else:
        verdicts["quasi_increasing"] = INCONCLUSIVE

    if model.has_gaussian_part() and model.kind != "khintchine":
        # no jump measure to probe; the Gaussian component already settles
        # the smoothness question
        kg = [(float(e), 0.0) for e in eps_grid]
        verdicts["kg"] = SATISFIED
    else:
        kg = []
        for e in eps_grid:
            k_val, g_val = feller_functions(model, float(e))
            kg.append((float(e), float(g_val / k_val) if k_val > 0
                       else math.inf))
        ratios = np.array([v for _, v in kg])
        small = ratios[eps_grid <= eps_grid[0] * 10.0]
        if model.has_gaussian_part():
            verdicts["kg"] = SATISFIED
        elif np.any(~np.isfinite(small)):
            verdicts["kg"] = VIOLATED
        else:
            med = float(np.median(ratios[np.isfinite(ratios)]))
            if np.max(small) <= _KG_BOUNDED_FACTOR * max(med, 1e-300):
                verdicts["kg"] = SATISFIED
            elif small[0] > 10.0 * small[-1]:
                verdicts["kg"] = VIOLATED
            else:
                verdicts["kg"] = INCONCLUSIVE

    return ConditionReport(alpha, dalang_value, dalang_tail, hawkes, quasi,
                           kg, verdicts)


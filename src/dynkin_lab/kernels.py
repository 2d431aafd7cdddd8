"""Spectral evaluation of the symmetrised-process kernels.

With RePsi the exponent of the underlying model, the symmetrised (replica)
process has exponent 2 RePsi and the quantities below all reduce to cosine
transforms on the frequency axis:

    pbar_t(r)   = (1/pi) int_0^inf cos(xi r) exp(-2 t RePsi) dxi
    u_alpha(r)  = (1/pi) int_0^inf cos(xi r) / (alpha + 2 RePsi) dxi

together with the time-window variants that give the second moments of the
heat solution (varU), the cable solution (varV), its stationary tail
component (varS), and the stationary field (varEta = u_alpha(0)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .levy import LevyModel, re_psi
from .quadrature import (RATIO_CAP, RATIO_DIVERGED, NonConvergenceError,
                         adaptive, cosine_transform, gl_panel,
                         integral_to_infinity)

KERNEL_KINDS = ("potential", "pbar", "varV", "varS", "varU")
# the "spectral" route of quadratic_form integrates up to here directly
SPECTRAL_CUTOFF = 2.0**15


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite signed measure sum_i c_i delta_{x_i}; duplicates are merged."""

    locations: np.ndarray
    weights: np.ndarray

    @staticmethod
    def from_atoms(atoms) -> "AtomicMeasure":
        pts: dict[float, float] = {}
        for x, c in atoms:
            x, c = float(x), float(c)
            if not (math.isfinite(x) and math.isfinite(c)):
                raise ValueError("atom locations and weights must be finite")
            pts[x] = pts.get(x, 0.0) + c
        pts = {x: c for x, c in pts.items() if c != 0.0}
        if not pts or sum(abs(c) for c in pts.values()) == 0.0:
            raise ValueError("atomic measure has zero total variation "
                             "after merging duplicate locations")
        xs = np.array(sorted(pts), dtype=float)
        cs = np.array([pts[x] for x in xs], dtype=float)
        return AtomicMeasure(xs, cs)

    def fourier_sq(self, xi: np.ndarray) -> np.ndarray:
        """|mu_hat(xi)|^2 = |sum_j c_j exp(i xi x_j)|^2."""
        phase = xi[..., None] * self.locations
        re = np.sum(self.weights * np.cos(phase), axis=-1)
        im = np.sum(self.weights * np.sin(phase), axis=-1)
        return re * re + im * im


def delta_difference(a: float, b: float) -> AtomicMeasure:
    return AtomicMeasure.from_atoms([(a, 1.0), (b, -1.0)])


def window(rate, t: float):
    """(1 - exp(-rate t)) / rate, elementwise, with the limit t at rate = 0.

    Below rate t = 1e-6 the quotient cancels, and the series
    t (1 - x/2 + x^2/6) in x = rate t replaces it.
    """
    rate = np.asarray(rate, dtype=float)
    x = rate * t
    small = x < 1e-6
    safe = np.where(small, 1.0, rate)
    return np.where(small, t * (1.0 - 0.5 * x + x * x / 6.0),
                    -np.expm1(-x) / safe)


def spectral_envelope(kind: str, model: LevyModel, alpha: float | None,
                      t: float | None):
    """One-sided envelope env(xi) with kernel(r) = (1/pi) CT(env, r).

    Each envelope is a function of the replica rate x = alpha + 2 RePsi(xi):
    potential 1/x, pbar exp(-x t), varV window(x, t), varS exp(-x t)/x, and
    varU, which is varV at alpha = 0.  pbar and varU take alpha = 0.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; "
                         f"expected one of {KERNEL_KINDS}")
    killed = kind in ("potential", "varV", "varS")
    if killed and (alpha is None or not alpha > 0):
        raise ValueError(f"{kind} kernel needs alpha > 0")
    if kind != "potential" and (t is None or not t > 0):
        raise ValueError(f"{kind} kernel needs t > 0")
    a = alpha if killed else 0.0

    def rate(xi):
        return a + 2.0 * np.asarray(re_psi(model, xi), dtype=float)

    if kind == "potential":
        return lambda xi: 1.0 / rate(xi)
    if kind == "pbar":
        return lambda xi: np.exp(-rate(xi) * t)
    if kind == "varS":
        def env(xi):
            x = rate(xi)
            return np.exp(-x * t) / x
        return env
    return lambda xi: window(rate(xi), t)


def _envelope_decay_guard(env, kind: str, summable: bool, context: str):
    """Reject envelopes whose far tail defeats the transform's meaning.

    For kernels that require an absolutely convergent spectral integral
    (potential, varV, varU) the octave masses of the envelope must decay
    geometrically; for density kernels (pbar, varS) the envelope itself must
    vanish at infinity (a flat tail signals an atom at the origin, e.g. a
    compound-Poisson exponent).  Coarse single-panel octaves keep this guard
    cheap; the transform's own bounds do the precise work afterwards.
    """
    masses = [gl_panel(env, 2.0**m, 2.0**(m + 1)) for m in range(14, 24)]
    ratios = [b / a for a, b in zip(masses, masses[1:]) if a > 0.0]
    if not ratios:
        return
    tail_ratio = ratios[-1]
    if summable:
        if tail_ratio >= RATIO_CAP and min(ratios[-3:]) >= RATIO_CAP:
            raise NonConvergenceError(
                f"{context}: spectral envelope has non-summable tail "
                f"(octave ratio {tail_ratio:.4f}); the existence integral "
                "fails at this exponent",
                diverged=tail_ratio >= RATIO_DIVERGED)
    else:
        if min(ratios[-3:]) >= 0.9995:
            raise NonConvergenceError(
                f"{context}: envelope does not vanish at infinity "
                "(exponent has bounded real part; no density exists)",
                diverged=True)


def _kernel(model: LevyModel, kind: str, r: float, alpha: float | None,
            t: float | None, rel_tol: float) -> tuple[float, float]:
    """Kernel at lag r and the bound of its cosine transform, both / pi."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be > 0")
    env = spectral_envelope(kind, model, alpha, t)
    if r != 0.0:
        _envelope_decay_guard(env, kind, kind in ("potential", "varV",
                                                  "varU"),
                              context=f"{kind} kernel")
    value, bound = cosine_transform(env, r, rel_tol=rel_tol,
                                    context=f"{kind} kernel")
    return value / math.pi, bound / math.pi


def kernel_value(model: LevyModel, kind: str, r: float,
                 alpha: float | None = None, t: float | None = None,
                 rel_tol: float = 1e-9) -> float:
    """Scalar kernel at lag r for the selected kind."""
    return _kernel(model, kind, r, alpha, t, rel_tol)[0]


def u_alpha(model: LevyModel, alpha: float, r: float,
            rel_tol: float = 1e-9) -> float:
    """Potential density of the symmetrised process at lag r.

    (1/pi) int_0^inf cos(xi r) / (alpha + 2 RePsi(xi)) dxi.  Raises
    NonConvergenceError when the tail fails to decay, which is exactly the
    numerical signature of the existence condition failing.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    return kernel_value(model, "potential", r, alpha=alpha, rel_tol=rel_tol)


def pbar_density(model: LevyModel, t: float, r: float) -> float:
    """Transition density of the symmetrised process, spectral form, at
    ``kernel_value``'s relative tolerance 1e-9.

    Nonnegative up to quadrature tolerance; raw values inside (-tol, 0) are
    clamped to zero with a warning.
    """
    if not t > 0:
        raise ValueError("t must be > 0")
    raw = kernel_value(model, "pbar", r, t=t)
    if raw < 0.0:
        tol = max(1e-12, 1e-9 * abs(pbar_density(model, t, 0.0))) \
            if r != 0.0 else 1e-12
        if raw > -tol:
            warnings.warn(f"pbar_density clamped tiny negative value {raw:.3e}"
                          " to 0", stacklevel=2)
            return 0.0
    return raw


@dataclass(frozen=True)
class VarianceProfile:
    varU: float
    varV: float
    varS: float
    varEta: float
    tail_bound: float

    def __iter__(self):
        return iter((self.varU, self.varV, self.varS, self.varEta))


def variance_profile(model: LevyModel, alpha: float, t: float,
                     rel_tol: float = 1e-9) -> VarianceProfile:
    """Pointwise second moments of U, V, S and the stationary field.

    The kernels varU, varV, varS and potential at lag 0, each through
    ``_kernel`` at ``rel_tol``; ``tail_bound`` is the largest of their four
    bounds.  varV + varS = varEta is an algebraic identity of the
    integrands and is left to hold (and be tested) numerically rather than
    being enforced.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if not t > 0:
        raise ValueError("t must be > 0")
    values, bounds = zip(*(_kernel(model, kind, 0.0, alpha, t, rel_tol)
                           for kind in ("varU", "varV", "varS", "potential")))
    return VarianceProfile(*values, max(bounds))


def quadratic_form(model: LevyModel, alpha: float | None, mu: AtomicMeasure,
                   kernel: str = "potential", t: float | None = None,
                   route: str = "pairs") -> float:
    """sum_ij c_i c_j k(x_i - x_j) for the selected scalar kernel.

    The operative route ("pairs") double-sums exact kernel quadratures, one
    cosine transform per lag.  The "spectral" route evaluates the same
    bilinear form as (1/pi) int_0^inf env(xi) |mu_hat(xi)|^2 dxi.  Up to
    ``SPECTRAL_CUTOFF`` ``adaptive`` integrates it at 1e-9 octave by
    octave, so that each octave meets the tolerance against its own
    mass, and its bisection refines the cusp of env at xi = 0 until it
    meets the tolerance.  Beyond the cutoff |mu_hat|^2 is replaced by
    its mean sum c_i^2.  The spectral route reads no value from the pairs
    route, so each checks the other.
    """
    if not isinstance(mu, AtomicMeasure):
        raise TypeError("mu must be an AtomicMeasure")
    if kernel not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kernel!r}")
    if route == "pairs":
        total = 0.0
        cache: dict[float, float] = {}
        for i, (xi_loc, ci) in enumerate(zip(mu.locations, mu.weights)):
            for xj_loc, cj in zip(mu.locations, mu.weights):
                r = abs(xi_loc - xj_loc)
                if r not in cache:
                    cache[r] = kernel_value(model, kernel, r, alpha=alpha, t=t)
                total += ci * cj * cache[r]
        return total
    if route == "spectral":
        env = spectral_envelope(kernel, model, alpha, t)

        def integrand(xi):
            return env(xi) * mu.fourier_sq(xi)

        # Octaves [0, 1], ..., [cutoff/2, cutoff], each at its own 1e-9:
        # one call on [0, cutoff] widens the worst route gaps about tenfold,
        # 2.6e-8 -> 2.1e-7 on stable(1.5, 1), 2.7e-10 -> 2.4e-9 on
        # brownian(1), 2.0e-8 -> 1.6e-7 on khintchine(0, power_law(1, 1.5)).
        edges = [0.0, *(2.0**m
                        for m in range(math.frexp(SPECTRAL_CUTOFF)[1]))]
        body = sum(adaptive(integrand, lo, hi, rel_tol=1e-9)
                   for lo, hi in zip(edges, edges[1:])) / math.pi
        # beyond the cutoff |mu_hat|^2 averages to sum c_i^2
        w2 = float(np.sum(mu.weights**2))
        tail_env, _ = integral_to_infinity(
            env, SPECTRAL_CUTOFF, rel_tol=1e-8, context="quadratic form tail")
        return body + w2 * tail_env / math.pi
    raise ValueError("route must be 'pairs' or 'spectral'")


def green_bound_constant(alpha: float) -> float:
    """e (alpha + 2/alpha): the potential-kernel comparison constant."""
    return math.e * (alpha + 2.0 / alpha)

"""Reference values computed apart from dynkin_lab.

Closed forms for stable and Gaussian exponents, and plain numpy quadrature
(composite Gauss-Legendre, trapezoid in log variable) for the quantities
that have none.  Nothing here imports the package under test.
"""

from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def gl_integrate(f, edges) -> float:
    """Composite Gauss-Legendre over the consecutive panels in ``edges``."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    pts = mid + half * _NODES[None, :]
    return float(np.sum(half[:, 0] * (f(pts) @ _WEIGHTS)))


def panels(upper: float, width: float) -> np.ndarray:
    """Panel edges on [0, upper]: geometric toward 0 (down to 1e-12), then
    of size <= width."""
    first = min(width, upper)
    n_geo = max(1, int(math.ceil(math.log2(first / 1e-12))))
    geo = first * 2.0 ** -np.arange(n_geo, -1, -1)
    rest = np.linspace(first, upper, max(2, int(math.ceil(
        (upper - first) / width)) + 1))
    return np.concatenate([[0.0], geo, rest[1:]])


def jump_exponent_power_law(coeff: float, beta: float, xi):
    """2 int_0^inf (1 - cos z xi) coeff z^(-1-beta) dz, closed form."""
    scale = coeff * math.pi / (math.gamma(1.0 + beta)
                               * math.sin(math.pi * beta / 2.0))
    return scale * np.abs(xi) ** beta


def u0_stable(alpha: float, beta: float, c: float) -> float:
    """u_alpha(0) = alpha^(1/beta-1) (2c)^(-1/beta) / (beta sin(pi/beta))."""
    return (alpha ** (1.0 / beta - 1.0) * (2.0 * c) ** (-1.0 / beta)
            / (beta * math.sin(math.pi / beta)))


def pbar0_stable(t: float, beta: float, c: float) -> float:
    """pbar_t(0) = Gamma(1 + 1/beta) / (pi (2ct)^(1/beta))."""
    return math.gamma(1.0 + 1.0 / beta) / (math.pi
                                           * (2.0 * c * t) ** (1.0 / beta))


def u_gauss(alpha: float, c: float, r: float) -> float:
    """u_alpha(r) for RePsi = c xi^2: exp(-r sqrt(alpha/2c)) / 2 sqrt(2 c alpha)."""
    return (math.exp(-abs(r) * math.sqrt(alpha / (2.0 * c)))
            / (2.0 * math.sqrt(2.0 * c * alpha)))


def pbar_stable(t: float, beta: float, c: float, r: float) -> float:
    """(1/pi) int_0^inf cos(xi r) exp(-2 t c xi^beta) dxi by quadrature."""
    upper = (45.0 / (2.0 * c * t)) ** (1.0 / beta)
    width = min(1.0, math.pi / (4.0 * abs(r))) if r else 1.0
    return gl_integrate(lambda x: np.cos(x * r)
                        * np.exp(-2.0 * t * c * x ** beta),
                        panels(upper, width)) / math.pi


def _log_trapezoid(f) -> float:
    """int_0^inf f(x) dx as a trapezoid sum in u = log x (f decays at 0, inf)."""
    u = np.linspace(-60.0, 60.0, 48_001)
    x = np.exp(u)
    return float(np.sum(f(x) * x) * (u[1] - u[0]))


def u0_gauss_plus_power_law(alpha, sigma2, coeff, beta) -> float:
    """u_alpha(0) for RePsi = sigma2 xi^2/2 + power-law jumps."""
    return _log_trapezoid(lambda x: 1.0 / (
        alpha + sigma2 * x * x
        + 2.0 * jump_exponent_power_law(coeff, beta, x))) / math.pi


def pbar0_gauss_plus_power_law(t, sigma2, coeff, beta) -> float:
    return _log_trapezoid(lambda x: np.exp(-2.0 * t * (
        0.5 * sigma2 * x * x
        + jump_exponent_power_law(coeff, beta, x)))) / math.pi


def corollary_means(beta, c, alpha, h, t) -> tuple[float, float]:
    """Exact E[D_S | S >= t] and E[D_S | S < t] from the spectral formulas.

    With psi = 2 c xi^beta and D = L^a - L^b, |a - b| = h:
      lhs = (1/pi) int (1 - cos h xi)[(1 - e^{-t psi})/psi
                                      + e^{-t psi}/(alpha + psi)] dxi
      rhs = (1/pi) int (1 - cos h xi)[(1 - e^{-t(alpha + psi)})/(alpha + psi)
                       - e^{-alpha t}(1 - e^{-t psi})/psi] / (1 - e^{-alpha t})
    Both are integrated numerically up to X; beyond X the factor in brackets
    is 1/psi to relative O(alpha/psi), whose (1 - cos h xi)/psi tail is
    added in closed form plus its first two oscillatory terms.
    """
    q = math.exp(-alpha * t)

    def lhs_f(x):
        psi = 2.0 * c * x ** beta
        return (1.0 - np.cos(h * x)) * (-np.expm1(-t * psi) / psi
                                        + np.exp(-t * psi) / (alpha + psi))

    def rhs_f(x):
        psi = 2.0 * c * x ** beta
        a = alpha + psi
        return (1.0 - np.cos(h * x)) * (-np.expm1(-t * a) / a
                                        + q * np.expm1(-t * psi) / psi) \
            / (1.0 - q)

    upper = 40_000.0 / h
    edges = panels(upper, math.pi / (2.0 * h))
    # int_X^inf (1 - cos h xi) / (2 c xi^beta) dxi, X = upper
    osc = (-math.sin(h * upper) * upper ** -beta / h
           + beta * math.cos(h * upper) * upper ** (-beta - 1.0) / h ** 2)
    tail = (upper ** (1.0 - beta) / (beta - 1.0) - osc) / (2.0 * c)
    lhs = gl_integrate(lhs_f, edges) + tail
    rhs = gl_integrate(rhs_f, edges) + tail
    return lhs / math.pi, rhs / math.pi


def torus_point_variance(circumference, n_modes, alpha, beta, c, t) -> float:
    """(1/L) sum_{|n| <= half} (1 - e^{-(2 RePsi(k_n) + alpha) t})
    / (2 RePsi(k_n) + alpha), k_n = 2 pi n / L, RePsi = c |k|^beta."""
    k = 2.0 * math.pi * np.arange((n_modes - 1) // 2 + 1) / circumference
    rate = 2.0 * c * k ** beta + alpha
    w = -np.expm1(-rate * t) / rate / circumference
    return float(w[0] + 2.0 * np.sum(w[1:]))

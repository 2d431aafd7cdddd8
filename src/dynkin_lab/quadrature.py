"""Deterministic quadrature backend for every kernel and spectral integral.

Three building blocks cover everything the package needs:

* ``adaptive`` -- Gauss-Legendre panels with adaptive bisection on a finite
  interval (handles integrable endpoint singularities by refining toward
  them, up to a fixed depth budget).
* ``integral_to_infinity`` and ``dyadic_integral_to_zero`` -- octaves
  toward infinity and dyadic shells toward 0 of a nonnegative integrand,
  walked by one ``_shell_walk`` with one geometric tail rule.  Divergence
  (shell ratio near or above one) raises :class:`NonConvergenceError`
  instead of hanging, which is how an existence-condition failure becomes
  observable.
* ``cosine_transform`` -- oscillation-aware evaluation of
  ``int_0^inf cos(xi*r) env(xi) dxi`` using half-period panels and repeated
  averaging of the alternating partial sums.

All integrand callables must accept and return numpy arrays.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)

# Octave continuation starts at 2**10 and hard-caps at 2**30; hitting the cap
# without tail stabilisation is reported, never silently truncated.
OCTAVE_START = 2.0**10
OCTAVE_CAP = 2.0**30
RATIO_CAP = 0.985  # shell ratios above this are treated as non-convergent
RATIO_DIVERGED = 0.997  # ... and above this as numerically divergent
DYADIC_SHELLS = 200  # shells toward 0 walked before giving up
# adaptive bisection: depth past which a panel is accepted as refined, and
# the panel budgets of adaptive and of the oscillatory half periods
ADAPTIVE_DEPTH = 30
ADAPTIVE_PANELS = 50_000
COSINE_PANELS = 400_000
# the repeated-averaging rule: partial sums averaged, and the lag in panels
# between the two averaged values whose drift bounds its bias
OSC_WINDOW = 12
OSC_LAG = 16


class NonConvergenceError(ArithmeticError):
    """An integral failed its tail bound or refinement budget.

    ``partial`` holds the best value computed before giving up and
    ``remainder`` the estimated unresolved tail, so callers can still report
    diagnostics.  ``diverged`` distinguishes a numerically divergent tail
    from one that is merely unresolvable at the configured caps.
    """

    def __init__(self, message, partial=None, remainder=None, diverged=False):
        super().__init__(message)
        self.partial = partial
        self.remainder = remainder
        self.diverged = diverged


def gl_panel(f: Callable, a: float, b: float) -> float:
    """Single fixed-order Gauss-Legendre panel on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES)))


def adaptive(f: Callable, a: float, b: float,
             rel_tol: float = 1e-10) -> float:
    """Adaptive bisection with Gauss-Legendre panels.

    A panel is accepted when the whole-panel estimate agrees with the sum of
    its halves; otherwise both halves are pushed, down to ``ADAPTIVE_DEPTH``
    levels, where the refined value is accepted (integrable endpoint
    singularities end there).  A panel from 0.0 whose halves read exactly 0
    is bisected, not accepted: every spectral envelope peaks at xi = 0, so
    its nodes missed the peak, and a 0 from [0, b] means every node down to
    b 2^-ADAPTIVE_DEPTH read 0.  Exhausting the panel budget (structure the
    bisection cannot localise, e.g. dense oscillation everywhere) is an
    error, not a silent truncation.
    """
    if a == b:
        return 0.0
    whole = gl_panel(f, a, b)
    stack = [(a, b, whole, 0)]
    total = 0.0
    scale = abs(whole)
    used = 0
    while stack:
        used += 1
        if used > ADAPTIVE_PANELS:
            raise NonConvergenceError(
                f"adaptive panel budget {ADAPTIVE_PANELS} exhausted on "
                f"[{a:.3g}, {b:.3g}]", partial=total)
        lo, hi, est, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = gl_panel(f, lo, mid)
        right = gl_panel(f, mid, hi)
        refined = left + right
        scale = max(scale, abs(total) + abs(refined))
        err = abs(refined - est)
        if depth >= ADAPTIVE_DEPTH or (err <= rel_tol * scale
                                       and (refined != 0.0 or lo != 0.0)):
            total += refined
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def _ratios_agree(rho, rho_prev):
    """Consecutive ratios of a geometric tail are close enough to trust.

    Elementwise on arrays of ratios."""
    return np.abs(rho - rho_prev) <= np.maximum(0.002, 0.02 * (1.0 - rho))


def _geometric_tail(j, rho, rho_prev):
    """The geometric tail past a last term j with term ratios rho (last)
    and rho_prev (the one before); elementwise on arrays.

    Returns ``(tail, uncertainty, ok)``.  Where the ratios agree below
    ``RATIO_CAP`` (ok), the tail is j rho/(1 - rho), known to within
    (|rho - rho_prev| + 1e-12) j/(1 - rho)^2; elsewhere both are 0.
    """
    ok = _ratios_agree(rho, rho_prev) & (rho < RATIO_CAP)
    gap = np.where(ok, 1.0 - rho, 1.0)
    tail = np.where(ok, j * rho / gap, 0.0)
    uncertainty = np.where(ok, (np.abs(rho - rho_prev) + 1e-12) * j
                           / gap ** 2, 0.0)
    return tail, uncertainty, ok


def _shell_walk(f: Callable, total: float, edge: float, step: float,
                shells: int, rel_tol: float,
                context: str) -> tuple[float, float]:
    """Add the shells [edge, edge*step], [edge*step, edge*step^2], ... of f
    to ``total`` until they end in a geometric tail.

    Returns ``(value, tail_uncertainty)``.  Once the last two shell ratios
    agree below ``RATIO_CAP`` the tail is ``_geometric_tail``'s, taken when
    its uncertainty is within rel_tol of the value or when this was the
    last of ``shells`` shells; agreeing ratios at or above ``RATIO_CAP``
    raise :class:`NonConvergenceError` (``diverged`` at or above
    ``RATIO_DIVERGED``), and so does running out of shells without a tail.
    A zero shell ends the walk once the total is nonzero, and otherwise a
    second zero shell in a row does (the support may not have begun).
    """
    j_prev = None
    rho_prev = None
    for n in range(shells):
        nxt = edge * step
        j = adaptive(f, min(edge, nxt), max(edge, nxt),
                     rel_tol=max(rel_tol, 1e-12))
        total += j
        edge = nxt
        if j_prev is not None and j_prev > 0.0 and j > 0.0:
            rho = j / j_prev
            if rho_prev is not None:
                tail, uncertainty, ok = _geometric_tail(j, rho, rho_prev)
                tail, uncertainty = float(tail), float(uncertainty)
                if ok:
                    if uncertainty <= max(rel_tol * abs(total + tail),
                                          1e-300) or n == shells - 1:
                        return total + tail, uncertainty
                elif _ratios_agree(rho, rho_prev):
                    raise NonConvergenceError(
                        f"{context}: shell ratio {rho:.4f} at {edge:.3g} "
                        f"does not decay", partial=total,
                        remainder=j / max(1e-12, 1.0 - min(rho, 0.9999)),
                        diverged=rho >= RATIO_DIVERGED)
            rho_prev = rho
        if j == 0.0 and (total != 0.0 or j_prev == 0.0):
            return total, 0.0
        j_prev = j
    raise NonConvergenceError(
        f"{context}: no geometric tail within {shells} shells, at {edge:.3g}",
        partial=total, remainder=j_prev)


def integral_to_infinity(f: Callable, start: float = 0.0,
                         rel_tol: float = 1e-10,
                         context: str = "integral") -> tuple[float, float]:
    """Integrate a (eventually monotone, nonnegative) f on [start, inf).

    Returns ``(value, tail_uncertainty)``.  The base interval [start, E]
    is handled adaptively, with first edge E = 2 start for start > 0 and
    ``OCTAVE_START`` otherwise; then octaves [E, 2E] below ``OCTAVE_CAP``
    are walked by ``_shell_walk`` until the geometric tail extrapolation
    stabilises; a divergent tail raises :class:`NonConvergenceError`.
    """
    first_edge = 2.0 * start if start > 0.0 else OCTAVE_START
    # octaves E 2^k with E 2^k < OCTAVE_CAP, a power of two
    octaves = math.frexp(OCTAVE_CAP)[1] - math.frexp(first_edge)[1]
    return _shell_walk(f, adaptive(f, start, first_edge, rel_tol=rel_tol),
                       first_edge, 2.0, octaves, rel_tol, context)


def _averaged_tail(row: np.ndarray):
    """Repeated pairwise averaging of alternating partial sums along the
    last axis of ``row`` (at least two of them).

    Returns the accelerated limit and the magnitude of the last averaging
    update, which bounds the acceleration error for alternating series with
    slowly varying terms; that update is taken once, after the last pass.
    """
    while row.shape[-1] > 1:
        prev, row = row, 0.5 * (row[..., :-1] + row[..., 1:])
    return row[..., 0], np.abs(row[..., -1] - prev[..., -1])


def _averaged_limit(partials: np.ndarray, k: int):
    """The limit of alternating partial sums and its error bound, along the
    last axis of ``partials``, whose last entry is the sum of k panels.

    The limit averages the last ``OSC_WINDOW`` sums; the bound is four
    times its last averaging update plus the drift from the same average
    taken ``OSC_LAG`` panels earlier, scaled by k/OSC_LAG, which
    extrapolates the residual bias of the sliding-window average.
    """
    value, acc_err = _averaged_tail(partials[..., -OSC_WINDOW:])
    value_mid, _ = _averaged_tail(
        partials[..., -OSC_WINDOW - OSC_LAG:-OSC_LAG])
    return value, 4.0 * acc_err + np.abs(value - value_mid) * (k / OSC_LAG)


def cosine_transform(env: Callable, r: float, rel_tol: float = 1e-9,
                     abs_tol: float = 0.0,
                     context: str = "cosine transform") -> tuple[float, float]:
    """Evaluate ``int_0^inf cos(xi*r) env(xi) dxi`` for a decaying envelope.

    Returns ``(value, error_bound)``; a non-finite r raises ValueError
    before any quadrature.  For r = 0 this reduces to the octave
    continuation.  Otherwise the first eight half-periods are integrated
    adaptively (they may contain all of the envelope's structure when r is
    small), after which half-period panels [k*pi/|r|, (k+1)*pi/|r|] are
    accumulated with one Gauss-Legendre panel each; the partial sums
    alternate, and repeated averaging of the last twelve of them supplies
    the tail limit and the returned bound.  That bound covers the tail
    only; the head's error is ``adaptive``'s rel_tol.

    The averaging is an Abel-type summation: envelopes of polynomial growth
    yield the regularised (distributional) transform value rather than an
    error.  Callers that need classical integrability must enforce it on the
    envelope beforehand (the kernel layer does).
    """
    r = abs(float(r))
    if not math.isfinite(r):
        raise ValueError(f"{context}: lag r must be finite, got {r}")
    if r == 0.0:
        return integral_to_infinity(env, 0.0, rel_tol=rel_tol, context=context)
    h = np.pi / r
    head_panels = 8
    total = adaptive(lambda x: np.cos(x * r) * env(x), 0.0, head_panels * h,
                     rel_tol=min(rel_tol, 1e-10))
    scale = max(abs_tol, abs(total))
    k = head_panels
    block = 2 * OSC_LAG
    mids_unit = 0.5 * (_GL_NODES + 1.0)
    while k < COSINE_PANELS:
        lows = h * (k + np.arange(block))
        pts = lows[:, None] + h * mids_unit[None, :]
        vals = np.cos(pts * r) * env(pts)
        terms = 0.5 * h * (vals @ _GL_WEIGHTS)
        # sequential sums, as a running total would add them; a block
        # holds both averaging windows
        partials = np.add.accumulate([total, *terms])
        total = float(partials[-1])
        k += block
        scale = max(scale, abs(total))
        last = abs(float(terms[-1]))
        tol = max(rel_tol * scale, abs_tol)
        if last <= tol:
            # plain alternating-series remainder bound
            return total, last
        value, bound = _averaged_limit(partials, k)
        if bound <= tol:
            return float(value), float(bound)
        # A growing envelope can never satisfy the bound; detect it early
        # via the panel magnitudes across the block.
        if last > 0.0:
            prev = abs(float(terms[0]))
            if prev > 0.0 and last / prev > 1.0 and k * h > OCTAVE_START:
                raise NonConvergenceError(
                    f"{context}: oscillatory panels stopped decaying near "
                    f"xi={k * h:.3g}", partial=total, remainder=last)
    raise NonConvergenceError(
        f"{context}: panel budget exhausted at xi={k * h:.3g} "
        f"(slowly decaying envelope)", partial=total,
        remainder=abs(float(terms[-1])))


def dyadic_integral_to_zero(f: Callable, upper: float, rel_tol: float = 1e-9,
                            context: str = "integral") -> float:
    """Integrate f on (0, upper] when f may blow up (integrably) at 0.

    At most ``DYADIC_SHELLS`` shells [upper 2^-(m+1), upper 2^-m] are walked
    by ``_shell_walk``; shells that fail to decay raise
    :class:`NonConvergenceError` (the integrand is not integrable at the
    origin at working precision).
    """
    return _shell_walk(f, 0.0, upper, 0.5, DYADIC_SHELLS, rel_tol,
                       context)[0]

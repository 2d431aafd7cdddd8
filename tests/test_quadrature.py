import math

import numpy as np
import pytest

from dynkin_lab import quadrature
from dynkin_lab.levy import LevyMeasure
from dynkin_lab.quadrature import (NonConvergenceError, adaptive,
                                   cosine_transform, dyadic_integral_to_zero,
                                   integral_to_infinity)


def test_adaptive_gaussian():
    val = adaptive(lambda x: np.exp(-x * x), 0.0, 10.0)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)


def test_adaptive_endpoint_singularity():
    # integrable 1/sqrt(x) singularity at 0; accuracy capped by the depth
    # budget (dyadic shells handle production origin singularities)
    val = adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, rel_tol=1e-10)
    assert val == pytest.approx(2.0, rel=1e-5)


def _narrow_gaussian(x):
    return np.exp(-1e4 * x * x)


def test_narrow_peak_at_origin_is_not_read_as_zero():
    # every node of [0, 1024] and of its halves misses a peak of width
    # 0.01 at 0; the head must still be refined toward 0 and find it
    exact = math.sqrt(math.pi) / 200.0
    assert adaptive(_narrow_gaussian, 0.0, 1024.0) == pytest.approx(
        exact, rel=1e-10)
    assert integral_to_infinity(_narrow_gaussian, 0.0)[0] == pytest.approx(
        exact, rel=1e-10)
    r = 0.01
    assert cosine_transform(_narrow_gaussian, r)[0] == pytest.approx(
        exact * math.exp(-r * r / 4e4), rel=1e-10)


def test_zero_integrand_panel_cost(monkeypatch):
    calls = []
    panel = quadrature.gl_panel

    def counting_panel(f, a, b):
        calls.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(quadrature, "gl_panel", counting_panel)

    def zero(x):
        return np.zeros_like(x)

    # away from the origin a zero panel is accepted at once
    assert adaptive(zero, 1.0, 1024.0) == 0.0
    assert len(calls) == 3
    calls.clear()
    # from the origin it is bisected toward 0, one path down to the depth
    assert adaptive(zero, 0.0, 1024.0) == 0.0
    assert len(calls) <= 4 * quadrature.ADAPTIVE_DEPTH + 3


def test_octave_continuation_power_tail():
    val, err = integral_to_infinity(lambda x: 1.0 / (1.0 + x * x), 0.0)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-9)
    assert err < 1e-8


def test_octave_continuation_slow_power():
    # p = 1.25 tail: still summable, needs the geometric extrapolation
    val, _ = integral_to_infinity(lambda x: (1.0 + x) ** -1.25, 0.0)
    assert val == pytest.approx(4.0, rel=1e-6)


def test_octave_divergence_detected():
    with pytest.raises(NonConvergenceError) as exc:
        integral_to_infinity(lambda x: 1.0 / (1.0 + x), 0.0)
    assert exc.value.diverged
    assert exc.value.partial is not None


def test_zero_integrand():
    val, err = integral_to_infinity(lambda x: np.zeros_like(x), 0.0)
    assert val == 0.0 and err == 0.0


def test_cosine_transform_exponential_envelope():
    # int_0^inf cos(r x) e^{-x} dx = 1/(1+r^2)
    for r in (0.0, 0.25, 1.0, 3.0):
        val, bound = cosine_transform(lambda x: np.exp(-x), r)
        assert val == pytest.approx(1.0 / (1.0 + r * r), abs=1e-9)


def test_cosine_transform_lorentzian_envelope():
    # int_0^inf cos(r x)/(a^2+x^2) dx = pi e^{-a r}/(2a)
    a = 1.5
    for r in (0.1, 0.7, 2.0, 10.0):
        val, _ = cosine_transform(lambda x: 1.0 / (a * a + x * x), r)
        assert val == pytest.approx(math.pi * math.exp(-a * r) / (2 * a),
                                    abs=1e-9)


def test_cosine_transform_conditionally_convergent():
    # int_0^inf cos(x)/(1+x) dx = sin(1)(pi/2 - Si(1)) - cos(1) Ci(1)
    exact = (math.sin(1) * (math.pi / 2 - 0.9460830703671830)
             - math.cos(1) * 0.3374039229009681)
    val, bound = cosine_transform(lambda x: 1.0 / (1.0 + x), 1.0,
                                  rel_tol=1e-8)
    assert val == pytest.approx(exact, abs=1e-9)


def test_cosine_transform_slow_power_parts_oracle():
    # reduce to a fast-decaying envelope by integrating by parts twice:
    # int cos(rx)(1+x)^-s = s/r^2 - s(s+1)/r^2 int cos(rx)(1+x)^-(s+2)
    s_exp, r = 1.2, 2.0
    inner, _ = cosine_transform(lambda x: (1.0 + x) ** -(s_exp + 2.0), r,
                                rel_tol=1e-11)
    oracle = s_exp / r**2 - s_exp * (s_exp + 1) / r**2 * inner
    val, _ = cosine_transform(lambda x: (1.0 + x) ** -s_exp, r,
                              rel_tol=1e-9)
    assert val == pytest.approx(oracle, abs=1e-10)


def test_dyadic_singular_integral(monkeypatch):
    # z^(1-beta) on (0, 1]: the shells shrink by 2^-(2-beta) each, only
    # 0.933 at beta = 1.9, and end in an exact geometric tail once two
    # ratios agree, a few shells in
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(quadrature, "adaptive", counted)
    for beta in (1.5, 1.9):
        calls.clear()
        val = dyadic_integral_to_zero(lambda z: z ** (1.0 - beta), 1.0,
                                      rel_tol=1e-10)
        assert val == pytest.approx(1.0 / (2.0 - beta), rel=1e-12)
        assert len(calls) <= 8


def test_dyadic_divergence_rejected():
    with pytest.raises(NonConvergenceError):
        dyadic_integral_to_zero(lambda z: 1.0 / z, 1.0)
    # shell ratio 2^-0.02 = 0.986, at or above RATIO_CAP
    with pytest.raises(NonConvergenceError):
        dyadic_integral_to_zero(lambda z: z ** -0.98, 1.0)
    with pytest.raises(ValueError):
        LevyMeasure.power_law(1.0, 1.98)  # z^2 rho = z^-0.98

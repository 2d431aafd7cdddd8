import math

import numpy as np
import pytest

from dynkin_lab.kernels import (AtomicMeasure, _kernel, delta_difference,
                                kernel_value, pbar_density, quadratic_form,
                                u_alpha, variance_profile, window)
from dynkin_lab.levy import LevyMeasure, LevyModel, stable_jump_coefficient
from dynkin_lab.quadrature import NonConvergenceError
from dynkin_lab.verify import (check_bd2_exact, check_green_bound,
                               check_pbar_monotone,
                               check_quadratic_form_routes,
                               check_spectral_additivity)

BROWNIAN = LevyModel.brownian(1.0)
STABLE = LevyModel.stable(1.5, 1.0)


def brownian_potential(alpha, r):
    a = math.sqrt(alpha / 2.0)
    return math.exp(-a * abs(r)) / (4.0 * a)


def stable_potential_origin(alpha, beta, c):
    # int_0^inf dx/(alpha + 2c x^b) = (alpha/2c)^(1/b)/alpha * (pi/b)/sin(pi/b)
    return ((alpha / (2 * c)) ** (1 / beta) / alpha
            * (math.pi / beta) / math.sin(math.pi / beta) / math.pi)


def test_u_alpha_brownian_values():
    assert u_alpha(BROWNIAN, 2.0, 0.0) == pytest.approx(0.25, abs=1e-9)
    assert u_alpha(BROWNIAN, 2.0, 1.0) == pytest.approx(math.exp(-1) / 4,
                                                        abs=1e-9)


def test_u_alpha_even_in_r():
    for m in (BROWNIAN, STABLE):
        assert u_alpha(m, 1.5, 0.8) == u_alpha(m, 1.5, -0.8)


def test_u_alpha_stable_origin():
    assert u_alpha(STABLE, 1.0, 0.0) == pytest.approx(
        stable_potential_origin(1.0, 1.5, 1.0), rel=1e-8)


def test_u_alpha_flags_existence_failure():
    with pytest.raises(NonConvergenceError):
        u_alpha(LevyModel.stable(1.0, 1.0), 1.0, 0.0)


def test_envelope_decay_guard_rejects_before_the_transform():
    # off the origin the guard reads the tail first: stable(1, 1) has a
    # potential envelope whose octave ratios tend to 1, and a finite jump
    # measure bounds ReΨ, so the pbar envelope tends to a positive constant
    with pytest.raises(NonConvergenceError,
                       match="non-summable tail") as info:
        u_alpha(LevyModel.stable(1.0, 1.0), 1.0, 0.5)
    assert info.value.diverged
    bounded = LevyModel.khintchine(
        0.0, LevyMeasure.power_law(1.0, 1.5, z_min=1.0, z_max=4.0))
    with pytest.raises(NonConvergenceError,
                       match="does not vanish at infinity") as info:
        pbar_density(bounded, 1.0, 0.5)
    assert info.value.diverged


def test_u_alpha_validates_alpha():
    with pytest.raises(ValueError):
        u_alpha(BROWNIAN, 0.0, 0.0)


def test_pbar_brownian_values():
    assert pbar_density(BROWNIAN, 1.0, 0.0) == pytest.approx(
        1.0 / (2 * math.sqrt(2 * math.pi)), abs=1e-10)
    assert pbar_density(BROWNIAN, 1.0, 2.0) == pytest.approx(
        math.exp(-0.5) / (2 * math.sqrt(2 * math.pi)), abs=1e-10)


def test_pbar_monotone_in_time():
    # tol_scale 1e-2 allows a rise of 1e-12 * max pbar, and max pbar < 1
    for m in (BROWNIAN, STABLE):
        res = check_pbar_monotone(m, 0, 1.0, 1e-2)
        assert res.passed, res.detail


def test_pbar_far_lag_nonnegative():
    assert pbar_density(BROWNIAN, 0.5, 30.0) >= 0.0


def test_variance_profile_brownian():
    prof = variance_profile(BROWNIAN, 2.0, 1.0)
    assert prof.varU == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-8)
    assert prof.varV + prof.varS == pytest.approx(prof.varEta, rel=1e-10)


def test_variance_profile_long_time_limits():
    prof = variance_profile(BROWNIAN, 2.0, 40.0)
    assert prof.varV == pytest.approx(0.25, rel=1e-8)
    assert prof.varS == pytest.approx(0.0, abs=1e-12)


def test_variance_profile_tail_vs_cable_at_halving_time():
    for m in (BROWNIAN, STABLE):
        for alpha in (0.5, 1.0, 4.0):
            t = math.log(2.0) / alpha
            prof = variance_profile(m, alpha, t)
            assert prof.varS <= prof.varV + 1e-10


def test_pbar_matches_closed_forms_where_the_envelope_is_narrow():
    # brownian(1): pbar(t, r) = exp(-r^2/8t)/sqrt(8 pi t); its envelope
    # e^{-2 xi^2 t} has underflowed at every node of a first panel on
    # [0, 1024] or [0, 8 pi/r] once t is large or r small
    for t in (0.01, 1.0, 100.0, 1e4):
        for r in (0.0, 1e-4, 1e-3, 0.01, 0.1, 1.0):
            exact = math.exp(-r * r / (8 * t)) / math.sqrt(8 * math.pi * t)
            assert pbar_density(BROWNIAN, t, r) == pytest.approx(
                exact, rel=1e-9), (t, r)
    # stable(beta, 1): pbar(t, 0) = Gamma(1 + 1/beta)/(pi (2t)^(1/beta))
    for beta in (1.2, 1.5, 1.8):
        for t in (0.01, 1.0, 100.0, 1e4):
            exact = math.gamma(1 + 1 / beta) / math.pi / (2 * t) ** (1 / beta)
            assert pbar_density(LevyModel.stable(beta, 1.0), t, 0.0) == \
                pytest.approx(exact, rel=1e-9), (beta, t)


def test_vars_small_lag_near_its_origin_value():
    for a in (1e-3, 1e-2):
        origin = kernel_value(BROWNIAN, "varS", 0.0, alpha=a, t=10.0)
        for r in (1e-3, 0.01):
            assert kernel_value(BROWNIAN, "varS", r, alpha=a, t=10.0) == \
                pytest.approx(origin, rel=1e-6), (a, r)


def test_spectral_additivity_relative():
    res = check_spectral_additivity(BROWNIAN, 0, 1.0, 1.0)
    assert res.passed, res.detail


def test_atomic_measure_merges_and_rejects():
    mu = AtomicMeasure.from_atoms([(0.0, 1.0), (0.0, 2.0), (1.0, -1.0)])
    assert mu.locations.tolist() == [0.0, 1.0]
    assert mu.weights.tolist() == [3.0, -1.0]
    with pytest.raises(ValueError):
        AtomicMeasure.from_atoms([(0.5, 1.0), (0.5, -1.0)])
    with pytest.raises(ValueError):
        AtomicMeasure.from_atoms([])


def test_quadratic_form_single_atom():
    mu = AtomicMeasure.from_atoms([(0.7, 1.0)])
    assert quadratic_form(BROWNIAN, 2.0, mu) == pytest.approx(
        u_alpha(BROWNIAN, 2.0, 0.0), rel=1e-10)


def test_quadratic_form_increment_value():
    val = quadratic_form(BROWNIAN, 2.0, delta_difference(0.0, 1.0))
    assert val == pytest.approx(2 * (0.25 - math.exp(-1) / 4), abs=1e-8)


def test_quadratic_form_route_agreement():
    # beta <= 1.3 gives the envelope its sharpest cusp at xi = 0, where a
    # fixed grid errs as h^(1 + beta) and missed the 1e-5 gate
    for m in (BROWNIAN, STABLE, LevyModel.stable(1.1, 1.0),
              LevyModel.stable(1.2, 1.0), LevyModel.stable(1.2, 0.5),
              LevyModel.stable(1.3, 1.0)):
        res = check_quadratic_form_routes(m, 0, 1.0, 1.0)
        assert res.passed, res.detail


def test_quadratic_form_routes_agree_on_khintchine():
    # pins cost more than value: a route that evaluates the jump exponent
    # cold at 2^21 points takes minutes here
    model = LevyModel.khintchine(0.0, LevyMeasure.power_law(1.0, 1.2))
    mu = AtomicMeasure.from_atoms([(0.0, 1.0), (0.7, -0.5), (1.3, 0.25)])
    a, b = (quadratic_form(model, 2.0, mu, "potential", route=route)
            for route in ("pairs", "spectral"))
    assert b == pytest.approx(a, rel=1e-5)


def test_quadratic_form_rejects_bad_kernel():
    mu = delta_difference(0.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_form(BROWNIAN, 1.0, mu, "nope")
    with pytest.raises(TypeError):
        quadratic_form(BROWNIAN, 1.0, [(0, 1)], "potential")
    with pytest.raises(ValueError, match="route must be"):
        quadratic_form(BROWNIAN, 1.0, mu, "potential", route="grid")
    with pytest.raises(ValueError, match="unknown kernel kind"):
        kernel_value(BROWNIAN, "nope", 0.5)


def test_green_bound_random_triples():
    res = check_green_bound(BROWNIAN, 5, 1.0, 1.0)
    assert res.passed, res.detail


def test_tail_component_smoother_random_measures():
    res = check_bd2_exact(BROWNIAN, 11, 1.0, 1.0)
    assert res.passed, res.detail


def test_variance_profile_validation():
    with pytest.raises(ValueError, match="alpha must be > 0"):
        variance_profile(BROWNIAN, 0.0, 1.0)
    with pytest.raises(ValueError, match="t must be > 0"):
        variance_profile(BROWNIAN, 1.0, -1.0)
    with pytest.raises(ValueError, match="rel_tol must be > 0"):
        variance_profile(BROWNIAN, 1.0, 1.0, rel_tol=0.0)


@pytest.mark.parametrize("model", [
    BROWNIAN, STABLE,
    LevyModel.khintchine(0.0, LevyMeasure.power_law(1.0, 1.5))])
def test_variance_profile_is_the_kernels_at_lag_zero(model):
    alpha, t = 0.5, 1.0
    prof = variance_profile(model, alpha, t)
    kinds = ("varU", "varV", "varS", "potential")
    assert tuple(prof) == tuple(
        kernel_value(model, kind, 0.0, alpha=alpha, t=t) for kind in kinds)
    assert prof.tail_bound == max(
        _kernel(model, kind, 0.0, alpha, t, 1e-9)[1] for kind in kinds)


def test_kernel_value_matches_u_alpha():
    assert kernel_value(BROWNIAN, "potential", 0.5, alpha=2.0) == \
        pytest.approx(u_alpha(BROWNIAN, 2.0, 0.5), rel=1e-12)


def test_u_alpha_khintchine_off_origin_matches_stable():
    # the cosine transform evaluates RePsi on a 2-d block of nodes
    nu = LevyMeasure.power_law(stable_jump_coefficient(1.5, 1.0), 1.5)
    jumps = LevyModel.khintchine(0.0, nu)
    assert u_alpha(jumps, 1.0, 0.5) == pytest.approx(
        u_alpha(STABLE, 1.0, 0.5), rel=1e-6)


def test_window_zero_rate_is_t():
    for t in (1e-3, 0.7, 5.0):
        assert window(0.0, t) == t
        assert np.all(window(np.zeros(3), t) == t)


def test_window_series_meets_quotient_at_threshold():
    t = 0.7
    rates = 1e-6 / t * (1.0 + 1e-9 * np.arange(-5, 6))
    x = rates * t
    assert np.any(x < 1e-6) and np.any(x >= 1e-6)
    exact = t * (1.0 - x / 2.0 + x * x / 6.0 - x ** 3 / 24.0)
    assert np.all(np.abs(window(rates, t) - exact) <= 1e-15 * exact)

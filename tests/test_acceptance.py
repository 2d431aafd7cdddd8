"""Acceptance gate: every headline quantitative claim at its stated
tolerance, one printed pass/fail line per criterion (run with -s to see
them)."""

import math

import numpy as np
import pytest

from dynkin_lab import fields, rng, torus
from dynkin_lab.fields import (SpectralGrid, scaling_exponent_ensemble,
                               spectral_density)
from dynkin_lab.kernels import u_alpha
from dynkin_lab.levy import (SATISFIED, VIOLATED, LevyMeasure, LevyModel,
                             condition_report, feller_functions)
from dynkin_lab.localtime import PathConfig, corollary_test, resolvent_check
from dynkin_lab.verify import (check_averaged_upper_bound, check_bd2_empirical,
                               check_bd2_exact, check_derivative_variance,
                               check_existence_sandwich, check_eta_covariance,
                               check_green_bound,
                               check_second_moment_lower_bound,
                               check_uv_sandwich)

BROWNIAN = LevyModel.brownian(1.0)
STABLE15 = LevyModel.stable(1.5, 1.0)


class _report:
    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.num:02d}] {self.name}: {status}")
        return False


def test_c01_closed_form_kernel_oracle():
    with _report(1, "closed-form potential kernel"):
        for alpha in (0.5, 2.0, 8.0):
            a = math.sqrt(alpha / 2.0)
            for r in (0.0, 0.5, 1.0, 2.0):
                exact = math.exp(-a * r) / (4.0 * a)
                assert abs(u_alpha(BROWNIAN, alpha, r) - exact) <= 1e-6


def test_c02_spectral_additivity_random():
    with _report(2, "spectral density additivity"):
        rng = np.random.default_rng(2024)
        total = 0
        models = [LevyModel.brownian(float(k))
                  for k in rng.uniform(0.1, 10.0, 25)]
        models += [LevyModel.stable(float(b), float(c))
                   for b, c in zip(rng.uniform(0.3, 2.0, 25),
                                   rng.uniform(0.1, 10.0, 25))]
        models.append(LevyModel.khintchine(
            0.2, LevyMeasure.power_law(0.5, 1.4)))
        for m in models:
            n = 100 if m.kind == "khintchine" else 200
            xi = rng.uniform(-100.0, 100.0, n)
            alpha = float(rng.uniform(0.05, 20.0))
            t = float(rng.uniform(0.05, 20.0))
            fv = spectral_density("V", m, alpha, t, xi)
            fs = spectral_density("S", m, alpha, t, xi)
            fe = spectral_density("eta", m, alpha, t, xi)
            assert np.all(np.abs(fv + fs - fe) <= 1e-12 * fe)
            total += n
        assert total >= 10_000


def _holds(res):
    assert res.passed, res.detail


def test_c03_existence_sandwich():
    with _report(3, "existence sandwich for cable and heat moments"):
        # tolerance 1e-7 (1 + u_2alpha(0)), brownian and 1.5-stable
        _holds(check_existence_sandwich(BROWNIAN, 0, 1.0, 0.1))


def test_c04_potential_kernel_bound():
    with _report(4, "potential kernel comparison bound"):
        _holds(check_green_bound(BROWNIAN, 404, 1.0, 1.0))


def test_c05_heat_cable_comparison():
    with _report(5, "heat/cable second-moment comparison"):
        # tolerance 1e-11 (1 + U) on the 5 x 5 (alpha, t) grid
        _holds(check_uv_sandwich(BROWNIAN, 0, 1.0, 1e-3))


def test_c06_tail_smoother_than_cable():
    with _report(6, "stationary tail smoother than cable component"):
        # exact kernels on random atomic measures, then the increment
        # measure on 1e5 replications
        _holds(check_bd2_exact(BROWNIAN, 606, 1.0, 1.0))
        _holds(check_bd2_empirical(BROWNIAN, 6001, 5.0, 1.0))


def test_c07_covariance_fidelity():
    with _report(7, "synthesised field covariance vs exact kernel"):
        # 1e5 replications
        _holds(check_eta_covariance(BROWNIAN, 7001, 10.0, 1.0))


def test_c08_derivative_field_variances():
    with _report(8, "tail-component derivative field variances"):
        # orders 1-4 from seeds 8001-8004, 40,000 replications each
        _holds(check_derivative_variance(STABLE15, 8000, 2.0, 1.0))


def test_c09_increment_scaling_exponents():
    with _report(9, "increment scaling exponents"):
        lags = 0.04 * 2.0 ** (np.arange(11) / 2.0)
        reps = 1024
        # fractional index beta - 1 = 0.5 for the stationary field
        grid15 = SpectralGrid(4096.0, 32768)
        det = fields.structure_function_exact("eta", STABLE15, 0.05, None,
                                              grid15, lags)
        det_slope = fields._fit_loglog(lags, det[None, :], (0, 10)).slope
        assert abs(det_slope - 0.5) <= 0.035  # discrete-grid truth on band
        fit15 = scaling_exponent_ensemble(STABLE15, "eta", 0.05, None,
                                          grid15, lags, 9100, reps)
        assert abs(fit15.slope - 0.5) <= 0.05
        # brownian: index 1
        grid2 = SpectralGrid(2048.0, 16384)
        fit2 = scaling_exponent_ensemble(BROWNIAN, "eta", 0.005, None,
                                         grid2, lags, 9200, reps)
        assert abs(fit2.slope - 1.0) <= 0.05
        # heat and cable snapshots share the small-scale exponent
        fit_u = scaling_exponent_ensemble(STABLE15, "U", None, 4.0, grid15,
                                          lags, 9300, reps)
        fit_v = scaling_exponent_ensemble(STABLE15, "V", 0.05, 4.0, grid15,
                                          lags, 9400, reps)
        joint = 2.0 * math.hypot(fit_u.stderr, fit_v.stderr)
        assert abs(fit_u.slope - fit_v.slope) <= joint


def test_c10_torus_dynamic_check():
    with _report(10, "torus cable dynamics: variance and dt-invariance"):
        cfg = torus.TorusConfig(64.0, 4097, 2.0)
        probes = np.arange(16) * 4.0
        report = torus.run_moments(cfg, BROWNIAN, 6.0, 10_000, probes,
                                   seed=1010)
        var = float(np.mean([r.var for r in report.rows if r.t == 6.0]))
        assert abs(var - 0.25) <= 0.02 * 0.25
        assert report.image_correction <= 0.01
        # dt-invariance in law between dt = 0.1 and 0.0125 (15 and 120
        # steps to t = 1.5), the evidence that run_moments' one step per
        # observation gap is exact
        c = torus.TorusConfig(64.0, 513, 2.0)
        at_probes = torus._probes(c, np.array([0.0, 16.0, 32.0, 48.0]))
        vs = {}
        for k, dt in enumerate((0.1, 0.0125)):
            acc = rng.Moments()
            for (u,) in torus._paths(torus.StepOperator(c, BROWNIAN, dt),
                                     1020 + k, 2500, (round(1.5 / dt),),
                                     at_probes):
                acc.add(u)
            vs[dt] = float(np.mean(acc.mean_var()[1]))
        exact = torus.point_covariance_exact(c, BROWNIAN, 1.5, 0.0)
        se_each = exact * math.sqrt(2.0 / 2500) / 2.0  # 4 far-apart probes
        assert abs(vs[0.1] - vs[0.0125]) <= 3 * math.sqrt(2) * se_each


def test_c11_resolvent_normalisation():
    with _report(11, "local-time resolvent normalisation"):
        cfg = PathConfig(2.0, 1.0, 1e-4, eps=0.02, seed=1101)
        res = resolvent_check(cfg, 2.0, 0.0, 0.0, paths=100_000)
        assert res.exact == pytest.approx(0.125, abs=1e-6)
        # documented estimator bias (smoothing over eps plus the time
        # Riemann term) is ~0.8% at these (eps, dt): inside the band
        bias_bound = 0.012 * res.exact
        assert 3 * res.stderr + bias_bound <= 0.05 * res.exact
        assert abs(res.estimate - 0.125) <= 0.05 * 0.125


def test_c12_conditional_difference_at_exponential_time():
    with _report(12, "conditional local-time difference comparison"):
        # E^a[L^a_s - L^b_s] is nondecreasing in s, so by memorylessness
        # E[D_S | S < t] <= E[D_S | S >= t] (proof and spectral formulas in
        # corollary_test).  Exact conditional means: 0.724 (S >= t) vs
        # 0.514 (S < t) for run 1, 0.1145 vs 0.0958 for run 2.  The
        # discounted pre/post-t form of the same estimate is checked in
        # test_localtime.test_discounted_split_inequality_holds
        res1 = corollary_test(PathConfig(1.5, 0.5, 1e-3, seed=1201), 1.0,
                              0.0, 1.0, math.log(2.0), paths=30_000)
        res2 = corollary_test(PathConfig(2.0, 1.0, 5e-4, seed=1202), 2.0,
                              0.0, 0.5, 1.0, paths=60_000)
        assert res1.verdict and res2.verdict, (
            "the mean of L^a - L^b given a clock S(alpha) < t must not "
            "exceed its mean given S >= t by more than 2 combined standard "
            f"errors; got S >= t vs S < t means {res1.lhs:.4f} vs "
            f"{res1.rhs:.4f} (exact 0.724 vs 0.514) and {res2.lhs:.4f} vs "
            f"{res2.rhs:.4f} (exact 0.1145 vs 0.0958)")


def test_c13_condition_checks():
    with _report(13, "existence and smoothness condition checks"):
        rep = condition_report(STABLE15, 1.0)
        assert rep.verdicts["dalang"] == SATISFIED
        rep0 = condition_report(LevyModel.stable(1.0, 1.0), 1.0)
        assert rep0.verdicts["dalang"] == VIOLATED
        # Feller-functional ratio for the stable-shape measure
        beta = 1.5
        for eps in (0.01, 0.1, 1.0):
            k_val, g_val = feller_functions(STABLE15, eps)
            assert g_val / k_val == pytest.approx((2 - beta) / beta,
                                                  rel=1e-4)
        # second-moment lower bound (to 1e-9) and averaged-exponent upper
        # bound (to 1e-6) on the power law z^-2.5
        _holds(check_second_moment_lower_bound(STABLE15, 0, 1.0, 1e-3))
        _holds(check_averaged_upper_bound(STABLE15, 0, 1.0, 1.0))

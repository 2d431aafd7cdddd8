import gc
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dynkin_lab import levy
from dynkin_lab.fields import SpectralGrid, sample_heat_field, sample_joint
from dynkin_lab.kernels import (AtomicMeasure, kernel_value, pbar_density,
                                spectral_envelope, u_alpha, variance_profile)
from dynkin_lab.levy import (SATISFIED, VIOLATED, LevyMeasure,
                             LevyModel, _jump_exponent, averaged_exponent,
                             condition_report, feller_functions, re_psi,
                             stable_jump_coefficient)
from dynkin_lab.localtime import (PathConfig, corollary_test,
                                  discounted_split_check, local_time,
                                  mean_local_times, resolvent_check,
                                  stable_increment)
from dynkin_lab.quadrature import adaptive
from dynkin_lab.torus import TorusConfig, run_moments
from dynkin_lab.verify import check_evenness, check_stable_consistency

_TABLE_Z = np.geomspace(0.01, 10.0, 40)

# (sigma2, measure factory): every shape the batched exponent must handle
_MEASURES = [
    (0.0, lambda: LevyMeasure.power_law(1.0, 0.5)),
    (0.0, lambda: LevyMeasure.power_law(1.0, 1.2)),
    (0.0, lambda: LevyMeasure.power_law(1.0, 1.9)),
    (0.5, lambda: LevyMeasure.power_law(1.0, 1.0)),
    (0.0, lambda: LevyMeasure.power_law(1.0, 0.5, z_min=0.5, z_max=8.0)),
    (0.0, lambda: LevyMeasure.power_law(1.0, 1.5, z_min=5.0)),
    (0.0, lambda: LevyMeasure.from_table(_TABLE_Z, _TABLE_Z ** -2.5)),
]


_NAN = math.nan
_BROWNIAN = LevyModel.brownian(1.0)
_GRID = SpectralGrid(64.0, 128)
_PATH = PathConfig(2.0, 1.0, 1e-3)
_KHIN = LevyModel.khintchine(0.0, LevyMeasure.power_law(1.0, 1.2))


@pytest.mark.parametrize("build, message", [
    (lambda: LevyModel.brownian(_NAN), "kappa must be > 0"),
    (lambda: LevyModel.stable(1.5, _NAN), "c must be > 0"),
    (lambda: LevyModel.khintchine(_NAN, LevyMeasure.power_law(1.0, 1.5)),
     "sigma2 must be >= 0"),
    (lambda: PathConfig(1.5, _NAN, 1e-3), "c must be > 0"),
    (lambda: PathConfig(1.5, 1.0, _NAN), "dt must be > 0"),
    (lambda: PathConfig(1.5, 1.0, 1e-3, eps=_NAN), "eps must be > 0"),
    (lambda: TorusConfig(_NAN, 33, 1.0, 0.1), "circumference must be > 0"),
    (lambda: TorusConfig(16.0, 33, _NAN, 0.1), "alpha must be >= 0"),
    (lambda: TorusConfig(16.0, 33, 1.0, _NAN), "dt must be > 0"),
    (lambda: SpectralGrid(_NAN, 16), "cutoff must be > 0"),
    (lambda: variance_profile(_BROWNIAN, _NAN, 1.0), "alpha must be > 0"),
    (lambda: variance_profile(_BROWNIAN, 1.0, _NAN), "t must be > 0"),
    (lambda: variance_profile(_BROWNIAN, 1.0, 1.0, rel_tol=_NAN),
     "rel_tol must be > 0"),
    (lambda: spectral_envelope("potential", _BROWNIAN, _NAN, None),
     "needs alpha > 0"),
    (lambda: spectral_envelope("pbar", _BROWNIAN, None, _NAN),
     "needs t > 0"),
    (lambda: u_alpha(_BROWNIAN, _NAN, 0.0), "alpha must be > 0"),
    (lambda: u_alpha(_BROWNIAN, 1.0, 1.0, rel_tol=_NAN),
     "rel_tol must be > 0"),
    (lambda: pbar_density(_BROWNIAN, _NAN, 0.0), "t must be > 0"),
    (lambda: sample_joint(_BROWNIAN, _NAN, 1.0, _GRID, [0.0], 1),
     "need alpha > 0 and t > 0"),
    (lambda: sample_joint(_BROWNIAN, 1.0, _NAN, _GRID, [0.0], 1),
     "need alpha > 0 and t > 0"),
    (lambda: sample_heat_field(_BROWNIAN, _NAN, _GRID, [0.0], 1),
     "t must be > 0"),
    (lambda: stable_increment(1.5, _NAN, 1e-3, np.random.default_rng(1), 3),
     "c and dt must be > 0"),
    (lambda: stable_increment(1.5, 1.0, _NAN, np.random.default_rng(1), 3),
     "c and dt must be > 0"),
    (lambda: local_time(np.zeros(4), 1e-3, 0.0, _NAN), "eps must be > 0"),
    (lambda: resolvent_check(_PATH, _NAN, 0.0, 0.0, 10),
     "alpha must be > 0"),
    (lambda: corollary_test(_PATH, _NAN, 0.0, 1.0, 0.5, 10),
     "alpha and t must be > 0"),
    (lambda: corollary_test(_PATH, 1.0, 0.0, 1.0, _NAN, 10),
     "alpha and t must be > 0"),
    (lambda: discounted_split_check(_PATH, _NAN, 0.0, 1.0, 0.5, 10),
     "alpha and t must be > 0"),
    (lambda: discounted_split_check(_PATH, 1.0, 0.0, 1.0, _NAN, 10),
     "alpha and t must be > 0"),
    (lambda: mean_local_times(_PATH, 0.0, [0.0], [_NAN], 10),
     "horizons must be > 0"),
    (lambda: mean_local_times(_PATH, 0.0, [0.0], [0.1, _NAN], 10),
     "horizons must be > 0"),
    (lambda: run_moments(TorusConfig(16.0, 33, 1.0, 0.1), _BROWNIAN, _NAN,
                         10, [0.0]), "t_end must be > 0"),
    (lambda: condition_report(_BROWNIAN, _NAN), "alpha must be > 0"),
    (lambda: feller_functions(LevyModel.stable(1.5, 1.0), _NAN),
     "eps must be > 0"),
    (lambda: averaged_exponent(_BROWNIAN, _NAN), "xi must be > 0"),
    (lambda: LevyMeasure.power_law(_NAN, 1.5),
     "power-law coefficient must be >= 0"),
    (lambda: LevyMeasure.power_law(1.0, 1.5, z_min=_NAN),
     "support must satisfy"),
    (lambda: LevyMeasure.power_law(1.0, 1.5, z_max=_NAN),
     "support must satisfy"),
    # before the guard, quadrature ran for seconds on these and then
    # raised NonConvergenceError
    (lambda: re_psi(_KHIN, _NAN), "xi must be finite"),
    (lambda: re_psi(_KHIN, math.inf), "xi must be finite"),
    (lambda: re_psi(_KHIN, np.array([1.0, -math.inf])), "xi must be finite"),
    # ... and on these, after about 2 s
    (lambda: u_alpha(_BROWNIAN, 1.0, _NAN), "lag r must be finite"),
    (lambda: u_alpha(_BROWNIAN, 1.0, math.inf), "lag r must be finite"),
    (lambda: pbar_density(_BROWNIAN, 1.0, math.inf), "lag r must be finite"),
    (lambda: kernel_value(_BROWNIAN, "varS", -math.inf, alpha=1.0, t=1.0),
     "lag r must be finite"),
    # a NaN location raised KeyError, and non-finite weights were accepted
    (lambda: AtomicMeasure.from_atoms([(_NAN, 1.0)]), "must be finite"),
    (lambda: AtomicMeasure.from_atoms([(0.0, _NAN)]), "must be finite"),
    (lambda: AtomicMeasure.from_atoms([(0.0, 1.0), (1.0, math.inf)]),
     "must be finite"),
], ids=["brownian-kappa", "stable-c", "khintchine-sigma2", "path-c",
        "path-dt", "path-eps", "torus-circumference", "torus-alpha",
        "torus-dt", "grid-cutoff", "profile-alpha", "profile-t",
        "profile-rel-tol", "envelope-alpha", "envelope-t", "u-alpha",
        "u-alpha-rel-tol", "pbar-t", "joint-alpha", "joint-t", "heat-t",
        "increment-c", "increment-dt", "local-time-eps", "resolvent-alpha",
        "corollary-alpha", "corollary-t", "split-alpha", "split-t",
        "horizon", "later-horizon", "torus-t-end", "condition-alpha",
        "feller-eps", "averaged-xi", "power-law-coeff", "support-z-min",
        "support-z-max", "khintchine-xi-nan", "khintchine-xi-inf",
        "khintchine-xi-minus-inf", "u-alpha-r-nan", "u-alpha-r-inf",
        "pbar-r-inf", "kernel-r-minus-inf", "atom-location-nan",
        "atom-weight-nan", "atom-weight-inf"])
def test_guards_reject_nan(build, message):
    # a guard written x <= 0 is false for NaN and let it through
    with pytest.raises(ValueError, match=message):
        build()


def test_stable_closed_form():
    m = LevyModel.stable(2.0, 1.0)
    assert re_psi(m, 3.0) == 9.0
    assert re_psi(m, 0.0) == 0.0


def test_brownian_closed_form():
    m = LevyModel.brownian(2.5)
    assert re_psi(m, -2.0) == 10.0
    assert re_psi(m, 0.0) == 0.0


@pytest.mark.parametrize("kappa", [1.0, 0.7, 2.5])
def test_brownian_is_stable_two(kappa):
    # kappa xi^2 and c |xi|^2.0 rounded differently at kappa = 0.7 and 2.5
    xs = np.geomspace(1e-3, 1e3, 1000)
    m = LevyModel.brownian(kappa)
    assert m == LevyModel.stable(2.0, kappa)
    assert np.array_equal(re_psi(m, xs),
                          re_psi(LevyModel.stable(2.0, kappa), xs))


def test_evenness_closed_forms():
    # tol_scale 0: the closed forms are exactly even
    for m in (LevyModel.brownian(0.7), LevyModel.stable(1.3, 2.0)):
        res = check_evenness(m, 7, 1.0, 0.0)
        assert res.passed, res.detail


def test_closed_forms_do_not_depend_on_how_xi_is_passed():
    # numpy's scalar power and its array loop can differ in the last bit
    xs = np.geomspace(2.0, 2.0**24, 70)
    for m in (LevyModel.stable(1.5, 1.0), LevyModel.stable(1.2, 2.0),
              LevyModel.brownian(0.7)):
        whole = re_psi(m, xs).tolist()
        assert [re_psi(m, float(x)) for x in xs] == whole
        assert [re_psi(m, np.float64(x)) for x in xs] == whole
        assert re_psi(m, xs[::-1]).tolist() == whole[::-1]


def test_evenness_khintchine():
    m = LevyModel.khintchine(0.3, LevyMeasure.power_law(0.5, 1.5))
    res = check_evenness(m, 8, 1.0, 1.0)
    assert res.passed, res.detail


def test_khintchine_power_law_scaling():
    # rho(z) = z^(-2.5) has the 1.5-stable shape: re_psi(xi)/xi^1.5 constant.
    # Oracle: the high-resolution quadrature value at xi = 1.
    nu = LevyMeasure.power_law(1.0, 1.5)
    m = LevyModel.khintchine(0.0, nu)
    base = _jump_exponent(nu, 1.0, 1e-11)
    for xi in (1.0, 2.0, 4.0, 8.0):
        ratio = re_psi(m, xi) / xi ** 1.5
        assert ratio == pytest.approx(base, rel=1e-4)


def test_stable_self_consistency():
    res = check_stable_consistency(LevyModel.stable(1.5, 1.0), 0, 1.0, 1.0)
    assert res.passed, res.detail


def test_exponent_cache_does_not_outlive_its_measure():
    # two measures of the same shape, freed in turn: a cache keyed on the
    # object id hands the second one the freed first one's exponent
    coeffs = (1.0, stable_jump_coefficient(1.5, 1.0))
    for i in range(40):
        coeff = coeffs[i % 2]
        m = LevyModel.khintchine(0.0, LevyMeasure.power_law(coeff, 1.5))
        expected = coeff / stable_jump_coefficient(1.5, 1.0) * 2.0 ** 1.5
        assert re_psi(m, 2.0) == pytest.approx(expected, rel=1e-4)
        del m
        gc.collect()


def test_feller_power_law_ratio():
    # K(eps) = 2C eps^-b/(2-b), G(eps) = 2C eps^-b/b; at beta = 1.9 the
    # dyadic shells of z^2 rho toward 0 shrink by only 2^-(2-beta) each
    for beta in (1.5, 1.9):
        nu = LevyMeasure.power_law(0.8, beta)
        m = LevyModel.khintchine(0.0, nu)
        for eps in (0.03, 0.5, 2.0):
            k_val, g_val = feller_functions(m, eps)
            assert k_val == pytest.approx(
                2 * 0.8 * eps ** -beta / (2 - beta), rel=1e-7)
            assert g_val / k_val == pytest.approx((2 - beta) / beta,
                                                  rel=1e-7)


def test_feller_truncated_support():
    nu = LevyMeasure.power_law(1.0, 0.5, z_min=1.0, z_max=4.0)
    m = LevyModel.khintchine(0.0, nu)
    k_val, g_val = feller_functions(m, 0.25)
    assert k_val == 0.0
    _, g_far = feller_functions(m, 8.0)
    assert g_far == 0.0


def test_feller_requires_jump_measure():
    # stable beta = 2 is purely Gaussian, though the float sin(pi) makes
    # its jump coefficient 7.8e-17, not 0
    for m in (LevyModel.brownian(1.0), LevyModel.stable(2.0, 1.0)):
        with pytest.raises(ValueError, match="without a jump measure"):
            feller_functions(m, 0.5)
    with pytest.raises(ValueError):
        feller_functions(LevyModel.stable(1.5, 1.0), -1.0)


def test_averaged_exponent_brownian():
    m = LevyModel.brownian(1.0)
    assert averaged_exponent(m, 3.0) == pytest.approx(3.0, rel=1e-8)


def test_averaged_exponent_stable():
    m = LevyModel.stable(1.5, 2.0)
    assert averaged_exponent(m, 2.0) == pytest.approx(
        2.0 * 2.0 ** 1.5 / 2.5, rel=1e-8)
    with pytest.raises(ValueError):
        averaged_exponent(m, 0.0)


def test_averaged_exponent_vanishes_at_zero():
    # R(xi) = c xi^beta/(beta+1) -> 0 with the closed-form rate
    for m, limit_rate in ((LevyModel.brownian(1.0), (1e-6) ** 2 / 3),
                          (LevyModel.stable(1.2, 1.0), (1e-6) ** 1.2 / 2.2)):
        val = averaged_exponent(m, 1e-6)
        assert val == pytest.approx(limit_rate, rel=1e-6)
        assert val < 1e-7


_KINKED_TABLE = (_TABLE_Z, _TABLE_Z ** -2.5
                 * (1.0 + 0.5 * np.sin(5.0 * np.log(_TABLE_Z))))


@pytest.mark.parametrize("make", [
    lambda: LevyMeasure.power_law(1.0, 1.5, z_max=5.0),
    lambda: LevyMeasure.from_table(*_KINKED_TABLE)], ids=["z-max", "kinked"])
@pytest.mark.parametrize("x", [4.0, 64.0, 200.0])
def test_averaged_exponent_averages_the_models_re_psi(make, x):
    # the average's tolerance is its own: it averages the one RePsi of
    # the model, and the measure holds one exponent per xi
    m = LevyModel.khintchine(0.0, make())
    got = averaged_exponent(m, x, rel_tol=1e-6)
    fresh = LevyModel.khintchine(0.0, make())
    seen = set()

    def f(z):
        seen.update(np.atleast_1d(z).tolist())
        return re_psi(fresh, z)

    assert got == adaptive(f, 0.0, x, rel_tol=1e-6) / x
    re_psi(m, np.array(sorted(seen)))
    assert len(m.nu._exponents) == len(seen - {0.0})


def test_condition_report_stable_good():
    rep = condition_report(LevyModel.stable(1.5, 1.0), 1.0)
    assert rep.verdicts["dalang"] == SATISFIED
    assert rep.verdicts["hawkes"] == SATISFIED
    assert rep.verdicts["kg"] == SATISFIED
    assert math.isfinite(rep.dalang_integral)
    exact = 2.0 * (0.5) ** (1 / 1.5) * (math.pi / 1.5) \
        / math.sin(math.pi / 1.5)
    assert rep.dalang_integral == pytest.approx(exact, rel=1e-6)


def test_condition_report_stable_critical():
    rep = condition_report(LevyModel.stable(1.0, 1.0), 1.0)
    assert rep.verdicts["dalang"] == VIOLATED
    assert rep.dalang_integral == math.inf


def test_condition_report_brownian():
    rep = condition_report(LevyModel.brownian(1.0), 1.0)
    assert rep.verdicts["dalang"] == SATISFIED
    assert rep.verdicts["hawkes"] == SATISFIED
    hvals = [v for _, v in rep.hawkes_trend]
    assert all(b > a for a, b in zip(hvals[-5:], hvals[-4:]))


def test_condition_report_bounded_exponent_flat_hawkes():
    # compound-Poisson-like model: ReTPsi bounded, so the log trend decays
    nu = LevyMeasure.power_law(1.0, 0.5, z_min=0.5, z_max=8.0)
    m = LevyModel.khintchine(0.0, nu)
    rep = condition_report(m, 1.0)
    # finite jump mass with no Gaussian part: decided without quadrature
    assert rep.verdicts["dalang"] == VIOLATED
    assert rep.dalang_integral == rep.dalang_tail_bound == math.inf
    assert rep.verdicts["hawkes"] == VIOLATED


def test_condition_report_khintchine_existence_closed_form():
    # RePsi = xi^2/4 + pi |xi|, so int dxi / (1 + 2 RePsi) over the line is
    # 2 ln((b + s)/(b - s))/s with b = 2 pi and s = sqrt(4 pi^2 - 2)
    m = LevyModel.khintchine(0.5, LevyMeasure.power_law(1.0, 1.0))
    rep = condition_report(m, 1.0)
    b, s = 2.0 * math.pi, math.sqrt(4.0 * math.pi ** 2 - 2.0)
    exact = 2.0 * math.log((b + s) / (b - s)) / s
    assert rep.verdicts["dalang"] == SATISFIED
    assert abs(rep.dalang_integral - exact) <= 3.0 * rep.dalang_tail_bound


def test_condition_tables_sorted_nonempty():
    rep = condition_report(LevyModel.stable(1.5, 1.0), 2.0)
    for table in (rep.hawkes_trend, rep.quasi_increasing_ratio,
                  rep.kg_ratio):
        assert len(table) > 0
        absc = [a for a, _ in table]
        assert absc == sorted(absc)


def test_condition_report_rejects_bad_grid():
    with pytest.raises(ValueError):
        condition_report(LevyModel.brownian(1.0), 1.0,
                         xi_grid=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        condition_report(LevyModel.brownian(1.0), 0.0)


def test_measure_rejects_non_integrable():
    with pytest.raises(ValueError):
        LevyMeasure.power_law(1.0, 2.0)  # z^-3 at the origin
    with pytest.raises(ValueError):
        LevyMeasure.from_density(lambda z: 1.0 / z ** 3, 0.0, math.inf)
    with pytest.raises(ValueError):
        LevyMeasure.from_density(lambda z: np.full_like(z, 0.1), 0.0,
                                 math.inf)  # non-integrable tail


def test_infinite_support_given_as_any_inf():
    # the support's upper end is compared by value: float("inf") and
    # np.inf are not the object math.inf
    ref = LevyModel.khintchine(
        0.0, LevyMeasure.power_law(1.0, 0.5, z_min=5.0, z_max=math.inf))
    for inf in (float("inf"), np.inf):
        m = LevyModel.khintchine(
            0.0, LevyMeasure.power_law(1.0, 0.5, z_min=5.0, z_max=inf))
        assert m.nu.tail_weight == ref.nu.tail_weight
        assert feller_functions(m, 8.0) == feller_functions(ref, 8.0)
        xs = np.geomspace(0.1, 100.0, 7)
        assert re_psi(m, xs).tolist() == re_psi(ref, xs).tolist()
        assert _jump_exponent(m.nu, 3.0, 1e-9) \
            == _jump_exponent(ref.nu, 3.0, 1e-9)


def test_measure_rejects_negative_density():
    with pytest.raises(ValueError):
        LevyMeasure.from_density(lambda z: -np.ones_like(z), 0.5, 2.0)


def test_measure_rejects_nan_density():
    # NaN passes a test written vals < 0: the certificate then ran out of
    # panels and blamed a non-integrable tail
    with pytest.raises(ValueError, match="nonnegative and not NaN"):
        LevyMeasure.from_density(
            lambda z: np.where((z > 3) & (z < 3.5), np.nan, z ** -2.5))


@pytest.mark.parametrize("rho", [lambda z: 0.1, lambda z: z],
                         ids=["scalar", "identity"])
@pytest.mark.parametrize("z", [np.array([0.7, 1.0, 1.9]),
                               np.array([[0.1, 1.0], [1.5, 2.0]]),
                               np.array(1.2),
                               np.array([0.7, np.nan, 1.9]),
                               np.array([]),
                               np.array([0.5, 1.0, 2.0])],
                         ids=["inside", "straddling", "zero-d", "nan",
                              "empty", "support-edges"])
def test_density_is_a_fresh_array_of_the_points_shape(rho, z):
    # callers scale the density in place: it must be writable and must
    # not alias the points, even when rho returns a scalar or z itself
    nu = LevyMeasure.from_density(rho, 0.5, 2.0)
    before = z.copy()
    out = nu.density(z)
    assert out.shape == z.shape and out.flags.writeable
    assert not np.shares_memory(out, z)
    want = np.where((z > 0.5) & (z < 2.0), rho(z), 0.0)
    assert np.array_equal(out, want)
    out *= 3.0
    assert np.array_equal(z, before, equal_nan=True)


# float.hex of re_psi at xi = 1, 37.5 and 2^20 and of the integrability
# certificate (small moment, tail weight), recorded when every point went
# through the support mask: the route that skips the mask for points all
# inside must give the same bits.  The z-max and table values at 2^20 were
# recorded with the two-ended half-period rule of the compact support;
# they lie 3.0e-10 and 2e-16 from the closed forms 3294198.408331 and
# 1333.144587144191
_PINNED = [
    (lambda: LevyMeasure.power_law(1.0, 1.2),
     ["0x1.7fc04fd30cc81p+1", "0x1.d033cbc626c65p+7",
      "0x1.7fc04fd30cc92p+25"],
     ("0x1.4000000000000p+0", "0x1.aaaaaaaaaaaa9p-1")),
    (lambda: LevyMeasure.power_law(1.0, 1.5, z_min=5.0),
     ["0x1.6a7ddd773f2ddp-4", "0x1.e52b8a9364d98p-4",
      "0x1.e87a0537818c1p-4"],
     ("0x0.0p+0", "0x1.e879fc1ddca80p-5")),
    (lambda: LevyMeasure.power_law(1.0, 1.0, z_max=8.0),
     ["0x1.6e55f8a52dbb4p+1", "0x1.d63e02c8c5badp+6",
      "0x1.921fb34642cfbp+21"],
     ("0x1.fffffffffffffp-1", "0x1.bffffffffffffp-1")),
    (lambda: LevyMeasure.from_table(_TABLE_Z, _TABLE_Z ** -2.5),
     ["0x1.8d0f708db0116p+1", "0x1.e6dc48dd386bap+8",
      "0x1.4d4940ea6fee3p+10"],
     ("0x1.cccccccccccccp+0", "0x1.4a8a17cb952dfp-1")),
]


@pytest.mark.parametrize("make, exponents, certificate", _PINNED,
                         ids=["power-law", "z-min", "z-max", "table"])
def test_jump_exponents_pinned_bit_for_bit(make, exponents, certificate):
    nu = make()
    got = re_psi(LevyModel.khintchine(0.0, nu),
                 np.array([1.0, 37.5, 2.0**20]))
    assert [float(v).hex() for v in got] == exponents
    assert (nu.small_moment.hex(), nu.tail_weight.hex()) == certificate


def test_tabulated_measure():
    z = np.geomspace(0.01, 10.0, 40)
    nu = LevyMeasure.from_table(z, z ** -2.5)
    direct = LevyMeasure.power_law(1.0, 1.5, z_min=0.01, z_max=10.0)
    m1 = LevyModel.khintchine(0.0, nu)
    m2 = LevyModel.khintchine(0.0, direct)
    assert re_psi(m1, 2.0) == pytest.approx(re_psi(m2, 2.0), rel=2e-3)


def test_model_validation():
    with pytest.raises(ValueError):
        LevyModel.stable(2.5, 1.0)
    with pytest.raises(ValueError):
        LevyModel.stable(1.5, 0.0)
    with pytest.raises(ValueError):
        LevyModel.brownian(-1.0)
    with pytest.raises(ValueError):
        LevyModel.khintchine(-0.1, LevyMeasure.power_law(1.0, 1.5))


@pytest.mark.parametrize("sigma2, make", _MEASURES)
def test_batched_exponents_match_the_oracle(sigma2, make):
    # Both routes promise rel_tol; the oracle runs at rel_tol/100, so a
    # value meeting its promise lies within 1.01 rel_tol of it.  Adding the
    # exact Gaussian part rounds once more, by at most 2^-52 of the sum.
    rel_tol = 1e-8
    xis = np.geomspace(1e-4, 2.0**31, 200)
    got = re_psi(LevyModel.khintchine(sigma2, make()), xis)
    nu = make()
    oracle = np.array([_jump_exponent(nu, float(x), rel_tol / 100.0)
                       for x in xis])
    want = 0.5 * sigma2 * xis * xis + oracle
    gate = 1.01 * rel_tol * oracle + 2.0**-52 * want
    assert np.all(np.abs(got - want) <= gate)


@pytest.mark.parametrize("sigma2, make", _MEASURES)
def test_batched_exponents_do_not_depend_on_call_order(sigma2, make):
    xis = np.geomspace(1e-4, 2.0**31, 60)
    whole = re_psi(LevyModel.khintchine(sigma2, make()), xis)
    one_by_one = LevyModel.khintchine(sigma2, make())
    singles = np.empty_like(whole)
    for i in np.random.default_rng(5).permutation(xis.size):
        singles[i] = re_psi(one_by_one, float(xis[i]))
    block = re_psi(LevyModel.khintchine(sigma2, make()),
                   -xis[::-1].reshape(6, 10))
    assert np.array_equal(whole, singles)
    assert np.array_equal(whole, block.ravel()[::-1])


_BATCHES = (1, 10, 3, 340)


@pytest.mark.parametrize("make", [
    lambda: LevyMeasure.power_law(1.0, 1.2),
    lambda: LevyMeasure.power_law(1.0, 1.5, z_min=5.0),
    lambda: LevyMeasure.power_law(1.0, 0.5, z_min=0.5, z_max=8.0)],
    ids=["power-law", "z-min", "z-min-z-max"])
def test_reused_node_buffer_keeps_every_bit(make):
    # each thread writes every chunk's nodes into the one buffer it keeps:
    # chunks of other sizes before, in between or on another thread at the
    # same time must leave no trace in a value
    xis = np.geomspace(1e-3, 2.0**30, sum(_BATCHES))
    whole = re_psi(LevyModel.khintchine(0.0, make()), xis)
    for sizes in (_BATCHES, _BATCHES[::-1]):
        model = LevyModel.khintchine(0.0, make())
        parts = np.split(xis, np.cumsum(sizes)[:-1])
        assert np.array_equal(
            np.concatenate([re_psi(model, part) for part in parts]), whole)
    models = [LevyModel.khintchine(0.0, make()) for _ in range(2)]
    start = threading.Barrier(2, timeout=60)

    def cold(model):
        start.wait()
        return re_psi(model, xis)

    with ThreadPoolExecutor(2) as pool:
        for got in pool.map(cold, models):
            assert np.array_equal(got, whole)


def test_density_calling_re_psi_keeps_its_own_nodes():
    # rho evaluates a cold exponent of another model while the outer
    # chunk's nodes, its argument, are in use: the inner batch must write
    # its nodes elsewhere
    inner = LevyMeasure.power_law(1.0, 1.2)

    def inner_value():
        fresh = LevyMeasure(inner.density, inner.z_min, inner.z_max)
        return re_psi(LevyModel.khintchine(0.0, fresh), 2.0)

    def nested(z):
        scale = inner_value()
        return scale * z ** -2.5

    scale = inner_value()
    xis = np.geomspace(1e-2, 1e6, 40)
    got = re_psi(LevyModel.khintchine(
        0.0, LevyMeasure.from_density(nested)), xis)
    want = re_psi(LevyModel.khintchine(0.0, LevyMeasure.from_density(
        lambda z: scale * z ** -2.5)), xis)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("z_min, xi", [(0.5, 9.07), (0.5, 20.0),
                                       (0.1, 10.0 ** (4.0 / 3.0))])
def test_jump_exponent_support_edge_inside_an_interval(z_min, xi):
    # the density jumps at z_min.  At xi = 9.07 and 20 it lies inside the
    # first half period [pi/xi, 2 pi/xi], where one Gauss-Legendre panel
    # was 2.4% and 1.1% off; at xi = 21.54 it lies inside the bridge
    # [1/xi, pi/xi], whose adaptive panels missed it (6e-6 off at the
    # default rel_tol).  Reference: 4000 composite 64-point panels.
    nu = LevyMeasure.power_law(1.0, 0.5, z_min=z_min, z_max=8.0)
    x, w = np.polynomial.legendre.leggauss(64)
    edges = np.linspace(z_min, 8.0, 4001)
    half = 0.5 * np.diff(edges)[:, None]
    z = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
    ref = 2.0 * np.sum(half[:, 0] * (((1.0 - np.cos(z * xi)) * z ** -1.5)
                                     @ w))
    assert _jump_exponent(nu, xi, 1e-8) == pytest.approx(ref, rel=1e-8)


def test_jump_exponent_support_starting_far_out():
    # z_min = 5 with infinite support: once z_min xi passed 8 pi the far
    # mass met two empty octaves and stopped at 0 (the exponent read 0 at
    # xi = 10), and the transform met a block of empty panels.  Reference:
    # composite 64-point panels of 8 half periods on [5, 2000], the exact
    # mass beyond, and a cosine tail below 2 top^-2.5/xi, doubled.
    nu = LevyMeasure.power_law(1.0, 1.5, z_min=5.0)
    x, w = np.polynomial.legendre.leggauss(64)
    top = 2000.0
    for xi in (5.1, 13.0, 60.0):
        edges = np.append(np.arange(5.0, top, 8.0 * np.pi / xi), top)
        half = 0.5 * np.diff(edges)[:, None]
        z = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
        ref = 2.0 * (np.sum(half[:, 0] * (((1.0 - np.cos(z * xi))
                                            * z ** -2.5) @ w))
                     + top ** -1.5 / 1.5)
        got = _jump_exponent(nu, xi, 1e-10)
        assert abs(got - ref) <= 1e-8 * ref + 4.0 * top ** -2.5 / xi


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("xi", [2.0**14, 2.0**20, 2.0**28])
def test_jump_exponent_compact_support_closed_form(beta, xi):
    # power_law(1, beta, z_max) at z_max xi / pi > 20,000 half periods.
    # With U = z_max xi and C = int_0^inf (1 - cos u) u^(-1-beta) du,
    # RePsi = 2 xi^beta (C - U^-beta / beta + int_U^inf cos u u^(-1-beta) du)
    # and integration by parts bounds the last integral by 2 U^(-1-beta).
    # A midpoint rule on the far field was 1.4-2.4% off here.
    z_max, rel_tol = 8.0, 1e-8
    m = LevyModel.khintchine(
        0.0, LevyMeasure.power_law(1.0, beta, z_max=z_max))
    u = z_max * xi
    c = math.pi / (2.0 * math.gamma(1.0 + beta)
                   * math.sin(math.pi * beta / 2.0))
    want = 2.0 * xi ** beta * (c - u ** -beta / beta)
    gate = rel_tol * want + 4.0 * xi ** beta * u ** (-1.0 - beta)
    assert abs(re_psi(m, xi) - want) <= gate


def test_khintchine_tail_exponent_sets_the_default_cutoff():
    # without a Gaussian part the order is read from RePsi(256)/RePsi(64),
    # and the default cutoff is 256 (alpha + 1)^(1/order)
    m = LevyModel.khintchine(0.0, LevyMeasure.power_law(1.0, 1.2))
    assert m.tail_exponent() == pytest.approx(1.2, rel=1e-12)
    assert SpectralGrid.default(m, 1.0).cutoff == pytest.approx(
        256.0 * 2.0 ** (1.0 / 1.2), rel=1e-12)


def test_exponent_cache_keeps_every_value(monkeypatch):
    # nothing empties a measure's cache: a second call on more than
    # 100,000 distinct xi evaluates no row again
    rows = []

    def doubled(nu, xi, rel_tol, *panels):
        rows.append(xi.size)
        return 2.0 * xi

    monkeypatch.setattr(levy, "_exponent_rows", doubled)
    m = LevyModel.khintchine(0.0, LevyMeasure.power_law(1.0, 1.5))
    xis = np.linspace(1.0, 2.0, 100_002)
    first = re_psi(m, xis)
    assert sum(rows) == xis.size
    second = re_psi(m, xis)
    assert sum(rows) == xis.size
    assert np.array_equal(first, second)


def test_canonical_measure_is_built_once():
    m = LevyModel.stable(1.5, 1.0)
    assert m.canonical_measure() is m.canonical_measure()
    # the kg table reads the same numbers as with a fresh measure per eps
    rep = condition_report(m, 1.0)
    fresh = []
    for e in np.geomspace(1e-6, 1.0, 49):
        k_val, g_val = feller_functions(LevyModel.stable(1.5, 1.0), float(e))
        fresh.append((float(e), float(g_val / k_val)))
    assert rep.kg_ratio == fresh

import hashlib
import math

import numpy as np
import pytest

from dynkin_lab import rng, torus
from dynkin_lab.kernels import window
from dynkin_lab.levy import LevyModel, re_psi
from dynkin_lab.torus import (StepOperator, TorusConfig, mode_variance,
                              point_covariance_exact, run_moments, snapshot)
from dynkin_lab.verify import (check_dt_invariance, check_heat_cable_modes,
                               check_hermitian_preservation,
                               check_stationary_spectrum)

BROWNIAN = LevyModel.brownian(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TorusConfig(16.0, 64, 1.0)   # even mode count
    with pytest.raises(ValueError):
        TorusConfig(-1.0, 65, 1.0)
    with pytest.raises(ValueError):
        TorusConfig(16.0, 65, -0.5)
    with pytest.raises(ValueError):
        StepOperator(TorusConfig(16.0, 65, 1.0), BROWNIAN, 0.0)


def test_config_rejects_a_non_integer_mode_count():
    # 33.5 passed the odd check (33.5 % 2 == 1.5) and 33.0 passed as odd;
    # both failed later with a TypeError inside the first ensemble
    for n_modes in (33.5, 33.0):
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            TorusConfig(16.0, n_modes, 2.0)
    assert TorusConfig(16.0, np.int64(33), 2.0).half == 16


def test_snapshot_zero_state():
    cfg = TorusConfig(16.0, 33, 0.0)
    modes = np.zeros(cfg.half + 1, dtype=complex)
    assert np.all(snapshot(modes, cfg, [0.0, 3.0, 15.9]) == 0.0)


def test_snapshot_mode_injection_cosine():
    cfg = TorusConfig(16.0, 33, 0.0)
    modes = np.zeros(cfg.half + 1, dtype=complex)
    modes[1] = 1.0
    xs = np.array([0.0, 4.0, 8.0, 12.0])
    vals = snapshot(modes, cfg, xs)
    assert vals == pytest.approx(2 * np.cos(2 * np.pi * xs / 16.0),
                                 abs=1e-12)


def test_snapshot_domain_error():
    cfg = TorusConfig(16.0, 33, 0.0)
    modes = np.zeros(cfg.half + 1, dtype=complex)
    with pytest.raises(ValueError):
        snapshot(modes, cfg, [16.0])
    with pytest.raises(ValueError):
        snapshot(modes, cfg, [-0.1])


def test_snapshot_rejects_an_imaginary_zero_mode():
    # Im u_0 is the one way a stored half spectrum can break Hermitian
    # symmetry; 1e-14 is far below the field's scale and must still raise
    cfg = TorusConfig(16.0, 33, 0.0)
    modes = np.zeros(cfg.half + 1, dtype=complex)
    modes[0] = 1.0 + 1e-14j
    with pytest.raises(ValueError, match="Hermitian"):
        snapshot(modes, cfg, [0.0, 4.0])


def test_zero_mode_variance_heat_exact():
    # alpha = 0 zero mode is a Brownian motion in time: Var = t/L, and the
    # one-step recursion reproduces it exactly in floating point
    cfg = TorusConfig(16.0, 33, 0.0)
    mv = mode_variance(cfg, BROWNIAN, 0.05)
    assert mv[0] == pytest.approx(0.05 / 16.0, rel=1e-12)
    op = StepOperator(cfg, BROWNIAN, 0.05)
    var = 0.0
    for _ in range(200):
        var = var * op.decay[0] ** 2 + op.sigma_zero ** 2
    assert var == pytest.approx(200 * 0.05 / 16.0, rel=1e-12)


def test_step_is_pure_and_reproducible():
    cfg = TorusConfig(16.0, 17, 1.0)
    modes = np.zeros(cfg.half + 1, dtype=complex)
    a = StepOperator(cfg, BROWNIAN, 0.1).apply(modes, 5, 2, 0)
    b = StepOperator(cfg, BROWNIAN, 0.1).apply(modes, 5, 2, 0)
    assert np.array_equal(a, b)
    assert not modes.any()   # the step leaves its input as it was


def test_hermitian_symmetry_structural():
    # 1000 steps
    res = check_hermitian_preservation(BROWNIAN, 9, 0.001, 1.0)
    assert res.passed, res.detail


def test_hermitian_check_catches_an_imaginary_zero_mode(monkeypatch):
    # a nonzero imaginary innovation of the zero mode shows from the first
    # step, so the check's fixed run cannot miss it
    init = StepOperator.__init__

    def faulty(self, cfg, model, dt):
        init(self, cfg, model, dt)
        self.noise_scale[1] = self.sigma_zero

    monkeypatch.setattr(StepOperator, "__init__", faulty)
    res = check_hermitian_preservation(BROWNIAN, 9, 1.0, 1.0)
    assert not res.passed, res.detail


def test_mode_variance_matches_ensemble():
    cfg = TorusConfig(16.0, 17, 2.0)
    paths, steps, dt = 6000, 8, 0.1
    acc = np.zeros(cfg.half + 1)
    for (power,) in torus._paths(StepOperator(cfg, BROWNIAN, dt), 21, paths,
                                 (steps,), lambda m: np.abs(m) ** 2):
        acc += power
    emp = acc / paths
    exact = mode_variance(cfg, BROWNIAN, steps * dt)
    se = exact * math.sqrt(2.0 / paths)
    assert np.all(np.abs(emp - exact) <= 4 * se)


def test_point_variance_ensemble_and_dt_invariance():
    # 3000 paths at each dt
    res = check_dt_invariance(BROWNIAN, 33, 1.5, 1.0)
    assert res.passed, res.detail


def test_stationary_mode_spectrum_ensemble():
    # 500 paths, the check's smallest size
    res = check_stationary_spectrum(BROWNIAN, 0, 0.25, 1.0)
    assert res.passed, res.detail


def test_stationary_spectrum_limit():
    cfg = TorusConfig(16.0, 33, 2.0)
    exact = torus.stationary_point_variance(cfg, BROWNIAN)
    assert point_covariance_exact(cfg, BROWNIAN, 50.0, 0.0) == \
        pytest.approx(exact, rel=1e-10)


def test_mode_variance_is_the_kernel_window():
    for alpha in (0.0, 2.0):
        cfg = TorusConfig(16.0, 33, alpha)
        rate = alpha + 2.0 * re_psi(BROWNIAN, cfg.frequencies)
        want = window(rate, 0.3)
        got = cfg.circumference * mode_variance(cfg, BROWNIAN, 0.3)
        assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_heat_dominates_cable_per_mode():
    res = check_heat_cable_modes(BROWNIAN, 0, 1.0, 1.0)
    assert res.passed, res.detail


def test_torus_covariance_matches_line_kernel():
    # long-run torus covariance approaches exp(-a r)/(4a) for r << L
    cfg = TorusConfig(64.0, 2049, 2.0)
    for r in (0.5, 1.0, 2.0):
        tor = torus.point_covariance_exact(cfg, BROWNIAN, 40.0, r)
        assert tor == pytest.approx(math.exp(-r) / 4.0, rel=1e-3)


def test_run_moments_report():
    cfg = TorusConfig(16.0, 33, 2.0)
    report = run_moments(cfg, BROWNIAN, 2.0, 500, [0.0, 4.0], seed=3)
    assert len(report.rows) == 4  # two times x two probes
    assert len(report.covariances) == 1
    c = report.covariances[0]
    scale = report.rows[-1].exact_var
    assert abs(c.cov - c.exact_cov) <= 5 * scale * math.sqrt(2.0 / 500)
    assert report.stationarity_gap is not None
    assert report.stationarity_gap <= report.stationarity_bound \
        + 4 * report.rows[-1].exact_var * math.sqrt(2.0 / 500)
    for row in report.rows:
        assert abs(row.mean) <= 4 * math.sqrt(row.exact_var / 500)
        assert abs(row.var - row.exact_var) <= 4 * row.exact_var \
            * math.sqrt(2.0 / 500)


def test_step_stream_contract():
    # Exact outputs of the step and of the ensemble that runs it: a step is
    # a pure function of (seed, DOMAIN_TORUS, path, step), so a rewrite of
    # apply must reproduce every one of these numbers exactly.
    model = LevyModel.stable(1.5, 1.0)
    cfg = TorusConfig(32.0, 65, 2.0)
    report = run_moments(cfg, model, 2.0, 20, [0.0, 1.5, 7.0], seed=5)
    assert [(r.t, r.x, r.mean, r.var, r.stderr) for r in report.rows] == [
        (1.0, 0.0, -0.02839788909923719, 0.14814777764418893,
         0.04684844076478111),
        (1.0, 1.5, -0.019614571683390047, 0.30294473846062075,
         0.09579953786995735),
        (1.0, 7.0, 0.16646498355697698, 0.1865168639940192,
         0.05898181122529509),
        (2.0, 0.0, 0.16669564846029608, 0.18724497105059212,
         0.05921205889321624),
        (2.0, 1.5, 0.12886446023793358, 0.27428005348657364,
         0.08673496857703801),
        (2.0, 7.0, -0.04802016956928286, 0.2844934047315909,
         0.08996471382479511)]
    assert [c.cov for c in report.covariances] == [
        0.10217113721142729, 0.00980387932997227, -0.07558652456515987]
    assert report.stationarity_gap == 0.03909719340640319
    op = StepOperator(cfg, model, 0.1)
    modes = np.zeros(cfg.half + 1, dtype=complex)
    for k in range(50):
        modes = op.apply(modes, 7, 3, k)
    assert hashlib.sha256(modes.tobytes()).hexdigest() == (
        "de994feecebc2bc2edaaf769ae3d14d476450811a05340e8f40854c827542fa7")
    # the zero mode is real: its imaginary part is +0.0, not -0.0
    assert modes[0].imag == 0.0
    assert math.copysign(1.0, modes[0].imag) == 1.0


def test_run_moments_steps_once_per_observation_gap(monkeypatch):
    # one exact step of t_end/2 to each of t_end/2 and t_end: path p takes
    # steps 0 and 1 of its stream; fewer paths than the pool threshold keep
    # the run serial, so the patched apply sees every call
    paths = 20
    assert paths < rng.POOL_MIN_ITEMS
    calls = []
    apply = StepOperator.apply

    def counted(self, modes, seed, path, step):
        calls.append((path, step))
        return apply(self, modes, seed, path, step)

    monkeypatch.setattr(StepOperator, "apply", counted)
    report = run_moments(TorusConfig(16.0, 33, 2.0), BROWNIAN, 6.0, paths,
                         [0.0, 4.0], seed=3)
    assert calls == [(p, k) for p in range(paths) for k in (0, 1)]
    assert [r.t for r in report.rows] == [3.0, 3.0, 6.0, 6.0]


def test_stationarity_gap_se_is_the_paired_standard_error():
    # the s.e. of the per-path difference u(t_end, x_0)^2 - u(t_end/2, x_0)^2
    # at the first probe, from the same paths as the report
    cfg, t_end, paths, seed = TorusConfig(16.0, 33, 2.0), 2.0, 200, 3
    probes = np.array([0.0, 4.0])
    report = run_moments(cfg, BROWNIAN, t_end, paths, probes, seed=seed)
    diff = np.array([
        end[0] ** 2 - half[0] ** 2 for half, end in torus._paths(
            StepOperator(cfg, BROWNIAN, 0.5 * t_end), seed, paths, (1, 2),
            torus._probes(cfg, probes))])
    assert report.stationarity_gap_se == pytest.approx(
        diff.std() / math.sqrt(paths), rel=1e-12)
    heat = run_moments(TorusConfig(16.0, 33, 0.0), BROWNIAN, t_end, 20,
                       probes, seed=seed)
    assert heat.stationarity_gap is None and heat.stationarity_gap_se is None


def test_run_moments_rejects_small_torus():
    # image-sum correction above 1% must be refused
    cfg = TorusConfig(2.0, 33, 0.5)
    with pytest.raises(ValueError, match="image-sum"):
        run_moments(cfg, BROWNIAN, 1.0, 10, [0.0], seed=1)


def _no_step(*args):
    raise AssertionError("a step was taken")


@pytest.mark.parametrize("build, message", [
    (lambda: TorusConfig(math.inf, 33, 2.0),
     "circumference must be > 0 and finite"),
    (lambda: TorusConfig(16.0, 33, math.inf),
     "alpha must be >= 0 and finite"),
    (lambda: StepOperator(TorusConfig(16.0, 33, 2.0), BROWNIAN, math.inf),
     "dt must be > 0 and finite"),
    (lambda: run_moments(TorusConfig(16.0, 33, 2.0), BROWNIAN,
                         math.inf, 10, [0.0]), "t_end must be > 0 and finite"),
    (lambda: run_moments(TorusConfig(16.0, 33, 2.0), BROWNIAN, 1.0, 10,
                         [0.0, math.nan]), "probes must be finite"),
], ids=["circumference", "alpha", "dt", "t-end", "probe"])
def test_non_finite_input_raises_before_any_step(monkeypatch, build,
                                                 message):
    # an infinite dt once gave rows of NaN, a NaN probe NaN rows, an
    # infinite t_end OverflowError and an infinite alpha ZeroDivisionError
    monkeypatch.setattr(StepOperator, "apply", _no_step)
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_the_pass_hands_reduce_each_paths_modes():
    # a path is its complex mode array, stepped from zero by
    # op.apply(modes, seed, p, k); reduce sees it at every stop
    cfg = TorusConfig(16.0, 17, 1.0)
    op = StepOperator(cfg, BROWNIAN, 0.1)

    def reduce(modes):
        assert isinstance(modes, np.ndarray) and modes.dtype == complex
        assert modes.shape == (cfg.half + 1,)
        return modes.copy()

    runs = list(torus._paths(op, 4, 3, (2, 5), reduce))
    assert len(runs) == 3
    for p, (at_2, at_5) in enumerate(runs):
        modes, by_hand = np.zeros(cfg.half + 1, dtype=complex), []
        for k in range(5):
            modes = op.apply(modes, 4, p, k)
            by_hand.append(modes)
        assert np.array_equal(at_2, by_hand[1])
        assert np.array_equal(at_5, by_hand[4])


def test_run_moments_validation():
    cfg = TorusConfig(16.0, 33, 2.0)
    with pytest.raises(ValueError):
        run_moments(cfg, BROWNIAN, 0.0, 10, [0.0])
    with pytest.raises(ValueError):
        run_moments(cfg, BROWNIAN, 1.0, 1, [0.0])

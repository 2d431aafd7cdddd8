import math

import numpy as np
import pytest

from dynkin_lab import localtime, rng, torus
from dynkin_lab.kernels import u_alpha
from dynkin_lab.levy import LevyModel
from dynkin_lab.localtime import (BandwidthError, OccupancyError, PathConfig,
                                  corollary_test, discounted_split_check,
                                  local_time, mean_local_times,
                                  resolvent_check, simulate_path,
                                  stable_increment)
from dynkin_lab.verify import (check_lt_additivity,
                               check_lt_discounted_split, check_lt_domination)

# the walk of the localtime checks, which ignore the model they are given
WALK = LevyModel.stable(1.5, 0.5)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(1.0, 1.0, 1e-3)   # beta must exceed 1
    with pytest.raises(ValueError):
        PathConfig(2.5, 1.0, 1e-3)
    with pytest.raises(ValueError):
        PathConfig(1.5, -1.0, 1e-3)
    with pytest.raises(ValueError):
        PathConfig(1.5, 1.0, 0.0)
    cfg = PathConfig(2.0, 1.0, 1e-4)
    assert cfg.bandwidth == pytest.approx(1e-2)


def test_increment_gaussian_case():
    g = rng.stream(0, rng.DOMAIN_PATH, 0)
    x = stable_increment(2.0, 1.0, 0.01, g, size=400_000)
    # variance 4 c dt, with sampling error ~ var * sqrt(2/n)
    assert np.var(x) == pytest.approx(0.04, rel=4 * math.sqrt(2 / 400_000))
    assert abs(np.mean(np.sign(x))) <= 4 / math.sqrt(400_000)


def test_increment_cauchy_case():
    g = rng.stream(1, rng.DOMAIN_PATH, 0)
    x = stable_increment(1.0, 1.0, 0.01, g, size=1_000_000)
    q75, q25 = np.percentile(x, [75, 25])
    assert abs(np.median(x)) < 0.005
    assert q75 - q25 == pytest.approx(2 * 0.02, rel=0.01)


def test_increment_validation():
    g = rng.stream(2, rng.DOMAIN_PATH, 0)
    with pytest.raises(ValueError):
        stable_increment(2.5, 1.0, 0.1, g, size=1)
    with pytest.raises(ValueError):
        stable_increment(1.5, 0.0, 0.1, g, size=1)


def test_local_time_degenerate_path():
    pos = np.zeros(101)
    est = local_time(pos, 0.01, 0.0, 0.05)
    assert est == pytest.approx(100 * 0.01 / (2 * 0.05))
    assert local_time(pos, 0.01, 40.0, 0.05) == 0.0


def test_local_time_bandwidth_guards():
    g = rng.stream(3, rng.DOMAIN_PATH, 0)
    cfg = PathConfig(1.5, 0.5, 1e-3)
    pos = simulate_path(cfg, 2000, g)
    med = float(np.median(np.abs(np.diff(pos))))
    with pytest.raises(BandwidthError, match="over-smoothing"):
        local_time(pos, cfg.dt, 0.0, 2.5 * med)
    with pytest.raises(BandwidthError, match="step resolution"):
        local_time(pos, cfg.dt, 0.0, med / 8.0)
    local_time(pos, cfg.dt, 0.0, med)  # in-band eps accepted


def test_local_time_additivity_exact():
    res = check_lt_additivity(WALK, 4, 1.0, 1.0)
    assert res.passed, res.detail


def test_resolvent_check_brownian():
    # symmetrised Brownian walk, alpha = 2: discounted resolvent
    # = u_2(0)/2 = 0.125; 20k paths keeps this a few-second test
    cfg = PathConfig(2.0, 1.0, 1e-4, eps=0.02, seed=101)
    res = resolvent_check(cfg, 2.0, 0.0, 0.0, paths=20_000)
    assert res.exact == pytest.approx(0.125, abs=1e-6)
    assert abs(res.estimate - res.exact) <= 3 * res.stderr + 0.02 * res.exact
    assert res.mean_at_exponential_time == pytest.approx(2 * res.estimate)


def test_resolvent_check_stable():
    # beta=1.5, c=1/2 walk (symmetrised exponent |xi|^1.5) against the line
    # kernel, 1e5 paths; documented eps/dt bias is ~0.6% for these values
    cfg = PathConfig(1.5, 0.5, 2.5e-4, eps=0.003, seed=55)
    res = resolvent_check(cfg, 1.0, 0.0, 0.0, paths=100_000)
    exact = u_alpha(LevyModel.stable(1.5, 0.5), 1.0, 0.0)
    assert res.exact == pytest.approx(exact, rel=1e-8)
    assert abs(res.estimate - res.exact) <= 0.05 * res.exact


def test_resolvent_distance_decay():
    cfg = PathConfig(2.0, 1.0, 2e-4, eps=0.03, seed=7)
    near = resolvent_check(cfg, 2.0, 0.0, 0.0, paths=4000)
    far = resolvent_check(cfg, 2.0, 0.0, 3.0, paths=4000)
    assert far.estimate < 0.2 * near.estimate
    assert far.exact == pytest.approx(math.exp(-3.0) / 4.0 / 2.0, rel=1e-6)


def test_resolvent_monotone_in_alpha():
    cfg = PathConfig(2.0, 1.0, 2e-4, eps=0.03, seed=9)
    lo = resolvent_check(cfg, 1.0, 0.0, 0.0, paths=4000)
    hi = resolvent_check(cfg, 4.0, 0.0, 0.0, paths=4000)
    assert lo.mean_at_exponential_time > hi.mean_at_exponential_time


def test_corollary_same_level_degenerate():
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=3)
    res = corollary_test(cfg, 1.0, 0.3, 0.3, math.log(2.0), paths=2000,
                         min_bin_count=100)
    assert res.lhs == 0.0 and res.rhs == 0.0
    assert res.verdict


def test_corollary_verdict_orders_short_clock_below_long():
    # E^a[L^a_s - L^b_s] grows with s, so the mean given S >= t exceeds the
    # mean given S < t (exact 0.724 vs 0.514 for these parameters)
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=0)
    res = corollary_test(cfg, 1.0, 0.0, 1.0, math.log(2.0), paths=4000)
    assert res.lhs > res.rhs
    assert res.verdict


def test_corollary_occupancy_error():
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=4)
    with pytest.raises(OccupancyError, match="increase paths"):
        corollary_test(cfg, 1.0, 0.0, 1.0, 20.0, paths=1000)


def test_corollary_vanishing_conditioning():
    # t -> 0: conditioning on {S >= t} disappears, so the long-clock mean
    # approaches the unconditional one
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=5)
    res = corollary_test(cfg, 1.0, 0.0, 1.0, 1e-3, paths=20_000,
                         min_bin_count=1)
    total = (res.lhs * res.n_long + res.rhs * res.n_short) \
        / (res.n_long + res.n_short)
    assert res.n_short <= 60
    assert abs(res.lhs - total) <= 3 * res.lhs_se \
        + 2 * res.n_short / (res.n_long + res.n_short) * abs(res.lhs) \
        + 1e-3


def test_discounted_split_inequality_holds():
    # 8000 paths
    res = check_lt_discounted_split(WALK, 6, 0.8, 1.0)
    assert res.passed, res.detail


def test_hitting_domination_and_linear_growth():
    # 3000 paths from each start
    res = check_lt_domination(WALK, 61, 0.75, 1.0)
    assert res.passed, res.detail


def test_occupation_pass_matches_the_standalone_estimator():
    # the shared pass counts, bit for bit, what local_time counts on the
    # positions of each path's own stream
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=31)
    levels, times = [0.0, 0.2, 0.4], [0.25, 0.5]
    means, _ = mean_local_times(cfg, 0.2, levels, times, paths=2)
    paths = [simulate_path(cfg, 500, rng.stream(31, rng.DOMAIN_PATH, p), 0.2)
             for p in range(2)]
    for ti, t in enumerate(times):
        n = int(round(t / cfg.dt))
        for li, y in enumerate(levels):
            vals = [local_time(pos[:n + 1], cfg.dt, y, cfg.bandwidth)
                    for pos in paths]
            assert means[ti, li] == sum(vals) / len(vals)
    assert means[-1].min() > 0.0   # every level is visited


def test_mean_local_times_rows_follow_the_given_horizons():
    # rows come in the order of ``times``, bit for bit those of the sorted
    # call reversed
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=14)
    up = mean_local_times(cfg, 0.2, [0.0, 0.3], [0.25, 0.5, 1.0], 20)
    down = mean_local_times(cfg, 0.2, [0.0, 0.3], [1.0, 0.5, 0.25], 20)
    for a, b in zip(up, down):
        assert a[::-1].tolist() == b.tolist()
    assert not np.array_equal(up[0][0], up[0][-1])


def test_mean_local_times_validation():
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=0)
    with pytest.raises(ValueError):
        mean_local_times(cfg, 0.0, [0.0], [], 10)
    with pytest.raises(ValueError):
        mean_local_times(cfg, 0.0, [0.0], [0.00033], 10)


def test_mean_local_times_rejects_zero_horizon():
    # a zero horizon would read cum[-1], the last horizon's count
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=3)
    with pytest.raises(ValueError, match="horizons must be > 0"):
        mean_local_times(cfg, 0.0, [0.0], [0.0, 1.0], 200)
    with pytest.raises(ValueError, match="horizons must be > 0"):
        mean_local_times(cfg, 0.0, [0.0], [0.0], 200)


@pytest.mark.parametrize("paths", [0, 1])
@pytest.mark.parametrize("estimator", [
    lambda cfg, n: resolvent_check(cfg, 1.0, 0.0, 0.0, n),
    lambda cfg, n: corollary_test(cfg, 1.0, 0.0, 1.0, 0.5, n,
                                  min_bin_count=1),
    lambda cfg, n: discounted_split_check(cfg, 1.0, 0.0, 1.0, 0.5, n),
    lambda cfg, n: mean_local_times(cfg, 0.0, [0.0], [0.5], n),
], ids=["resolvent", "corollary", "discounted_split", "mean_local_times"])
def test_estimators_need_two_paths(estimator, paths):
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=0)
    with pytest.raises(ValueError, match="at least 2 paths"):
        estimator(cfg, paths)


def test_path_stream_contract():
    # Exact outputs at small path counts: path p's positions are a pure
    # function of (seed, DOMAIN_PATH, p), so a rewrite of the path loop
    # (batched or not) must reproduce every one of these numbers exactly.
    res = resolvent_check(PathConfig(1.5, 0.5, 1e-3, seed=11), 1.5, 0.0,
                          0.1, paths=200)
    assert (res.estimate, res.exact, res.stderr, res.paths, res.eps,
            res.dt) == (0.2664999999999999, 0.2848394110643933,
                        0.02421030255903466, 200, 0.010000000000000002,
                        0.001)
    # the sample mean of Lhat(S); estimate * alpha is within one ulp of it
    assert res.mean_at_exponential_time == 0.3997499999999999
    cor = corollary_test(PathConfig(1.5, 0.5, 1e-3, seed=12), 1.0, 0.0,
                         0.5, math.log(2.0), paths=200, min_bin_count=50)
    assert (cor.lhs, cor.rhs, cor.lhs_se, cor.rhs_se, cor.n_long,
            cor.n_short, cor.verdict) == (
        0.595959595959596, 0.444059405940594, 0.099333758490237,
        0.0518517372039735, 99, 101, True)
    split = discounted_split_check(PathConfig(1.5, 0.5, 1e-3, seed=13), 1.0,
                                   0.0, 0.5, math.log(2.0), paths=200)
    assert (split.lhs, split.rhs, split.margin, split.margin_se,
            split.paths) == (-0.020749999999999994, 0.45224999999999965,
                             0.4729999999999999, 0.043404838439971165, 200)
    means, ses = mean_local_times(PathConfig(1.5, 0.5, 1e-3, seed=14), 0.2,
                                  [0.0, 0.3], [0.5, 1.0], 200)
    assert means.tolist() == [[0.359, 0.4507499999999999],
                              [0.49950000000000006, 0.6187499999999997]]
    assert ses.tolist() == [[0.03392594877081553, 0.03542152858785177],
                            [0.04005619490166283, 0.046773974467646015]]


def test_path_stream_contract_beta_two():
    # Exact outputs at beta = 2, recorded with the general CMS transform.
    # The closed form 2 sin V sqrt(W) moves a position by at most a few
    # ulps, which must not move a hit count of either estimator.
    res = resolvent_check(PathConfig(2.0, 1.0, 1e-3, seed=21), 2.0, 0.0,
                          0.5, paths=200)
    assert (res.estimate, res.exact, res.stderr, res.paths, res.eps,
            res.dt, res.mean_at_exponential_time) == (
        0.06877953910866229, 0.07581633246407916, 0.0064817050226001465,
        200, 0.03162277660168379, 0.001, 0.13755907821732458)
    cor = corollary_test(PathConfig(2.0, 1.0, 1e-3, seed=22), 2.0, 0.0,
                         0.5, math.log(2.0) / 2.0, paths=200,
                         min_bin_count=50)
    assert (cor.lhs, cor.rhs, cor.lhs_se, cor.rhs_se, cor.n_long,
            cor.n_short, cor.verdict) == (
        0.1225382593315247, 0.07715957490810847, 0.03412358055655942,
        0.017716207269051692, 100, 100, True)


def test_path_bandwidth_guard_does_not_depend_on_the_seed():
    # the guard once read the first path's median step; under an
    # exponential clock that path can be a few steps long, and this config
    # raised BandwidthError for 0, 2 and 13 of these 100 seeds
    for alpha in (1.0, 20.0, 200.0):
        for s in range(100):
            resolvent_check(PathConfig(1.5, 0.5, 1e-3, seed=s), alpha, 0.0,
                            0.0, paths=2)


def test_path_bandwidth_guard_reads_the_law():
    # the guard compares eps with the step scale m = (2 c dt)^(1/beta),
    # before any path is drawn, so every seed and every estimator gets the
    # same verdict: 2.5 m over-smooths, m/8 is below the step resolution
    for beta, c in ((1.5, 0.5), (2.0, 2.0)):
        m = (2.0 * c * 1e-3) ** (1.0 / beta)
        for eps, match in ((2.5 * m, "over-smoothing"),
                           (m / 8.0, "step resolution")):
            for s in range(5):
                cfg = PathConfig(beta, c, 1e-3, eps=eps, seed=s)
                with pytest.raises(BandwidthError, match=match):
                    resolvent_check(cfg, 20.0, 0.0, 0.0, paths=2)
                with pytest.raises(BandwidthError, match=match):
                    corollary_test(cfg, 20.0, 0.0, 0.5, 0.05, paths=2)
                with pytest.raises(BandwidthError, match=match):
                    mean_local_times(cfg, 0.0, [0.0], [0.01], paths=2)
        resolvent_check(PathConfig(beta, c, 1e-3, eps=m), 20.0, 0.0, 0.0,
                        paths=2)


def test_one_worker_gives_the_pooled_run_bit_for_bit(monkeypatch):
    # every estimator adds its paths' values in path order, so a run split
    # over worker processes equals the serial one to the last bit; the
    # paths exceed the pool threshold, and two workers are forced so that
    # the default run pools on any host with fork (on two cores it is the
    # default)
    paths = rng.POOL_MIN_ITEMS + 100
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=41)
    tcfg = torus.TorusConfig(16.0, 33, 2.0)
    runs = [
        lambda: resolvent_check(cfg, 1.0, 0.0, 0.2, paths),
        lambda: corollary_test(cfg, 1.0, 0.0, 0.5, 0.7, paths,
                               min_bin_count=1),
        lambda: discounted_split_check(cfg, 1.0, 0.0, 0.5, 0.7, paths),
        lambda: mean_local_times(cfg, 0.1, [0.0, 0.3], [0.2, 0.5], paths),
        lambda: torus.run_moments(tcfg, WALK, 1.0, paths, [0.0, 2.5],
                                  seed=41),
    ]
    monkeypatch.setattr(rng, "workers", lambda: 2)
    pooled = [repr(run()) for run in runs]
    monkeypatch.setattr(rng, "workers", lambda: 1)
    assert [repr(run()) for run in runs] == pooled


@pytest.mark.parametrize("estimator, name", [
    (lambda cfg: resolvent_check(cfg, 1.0, math.nan, 0.0, 3000), "x"),
    (lambda cfg: resolvent_check(cfg, 1.0, 0.0, math.inf, 3000), "y"),
    (lambda cfg: corollary_test(cfg, 1.0, 1.0, math.nan, 0.7, 3000), "b"),
    (lambda cfg: discounted_split_check(cfg, 1.0, -math.inf, 0.5, 0.7,
                                        3000), "a"),
    (lambda cfg: mean_local_times(cfg, math.nan, [0.0], [1.0], 3000), "x0"),
    (lambda cfg: mean_local_times(cfg, 0.0, iter([0.0, math.nan]), [1.0],
                                  3000), "levels"),
    (lambda cfg: resolvent_check(cfg, math.inf, 0.0, 0.0, 3000), "alpha"),
    (lambda cfg: corollary_test(cfg, math.inf, 0.0, 1.0, 0.5, 3000),
     "alpha"),
    (lambda cfg: corollary_test(cfg, 1.0, 0.0, 1.0, math.inf, 3000), "t"),
    (lambda cfg: discounted_split_check(cfg, math.inf, 0.0, 1.0, 0.5,
                                        3000), "alpha"),
    (lambda cfg: discounted_split_check(cfg, 1.0, 0.0, 1.0, math.inf,
                                        3000), "t"),
    (lambda cfg: mean_local_times(cfg, 0.0, [0.0], [1.0, math.inf], 3000),
     "times"),
], ids=["resolvent-x", "resolvent-y", "corollary-b", "discounted_split-a",
        "mean_local_times-x0", "mean_local_times-levels", "resolvent-alpha",
        "corollary-alpha", "corollary-t", "discounted_split-alpha",
        "discounted_split-t", "mean_local_times-times"])
def test_non_finite_start_or_level_raises_before_any_path(monkeypatch,
                                                          estimator, name):
    # a NaN level once gave an empty box: lhs = rhs = 0 and a passing
    # corollary verdict, and a NaN start gave a path of NaNs; an infinite
    # alpha gave one-step paths, u_alpha = 0 and a passing resolvent
    # verdict, and an infinite t or horizon raised OverflowError
    def no_path(*args):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(localtime, "simulate_path", no_path)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        estimator(PathConfig(1.5, 0.5, 1e-3, seed=1))


def test_reduction_sees_each_paths_positions(monkeypatch):
    # reduce(S, X) gets path p's positions from its own stream: the clock
    # first, then ceil(S/dt) >= 1 steps from X_0 = x0; without a clock,
    # n_steps steps and S = None
    cfg = PathConfig(1.5, 0.5, 1e-3, seed=8)
    for p, (s_time, pos) in enumerate(localtime._paths(
            cfg, 40, 0.3, lambda s, pos: (s, pos), alpha=20.0)):
        gen = rng.stream(cfg.seed, rng.DOMAIN_PATH, p)
        assert s_time == gen.standard_exponential() / 20.0
        n = max(1, math.ceil(s_time / cfg.dt))
        assert pos[0] == 0.3 and pos.size == n + 1
        assert pos.tolist() == simulate_path(cfg, n, gen, 0.3).tolist()
    for s_time, size, start in localtime._paths(
            cfg, 3, -0.2, lambda s, pos: (s, pos.size, pos[0]), n_steps=70):
        assert (s_time, size, start) == (None, 71, -0.2)
    # pooled runs hand back the reduced values in path order
    paths = rng.POOL_MIN_ITEMS + 10
    runs = []
    for procs in (2, 1):
        monkeypatch.setattr(rng, "workers", lambda: procs)
        runs.append([(s, pos.tolist()) for s, pos in localtime._paths(
            cfg, paths, 0.1, lambda s, pos: (s, pos), alpha=5.0)])
    assert runs[0] == runs[1]

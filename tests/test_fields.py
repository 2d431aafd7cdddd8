import json
import math
import sys

import numpy as np
import pytest

from dynkin_lab import cli, fields, rng
from dynkin_lab.fields import (SpectralGrid, ensemble_values,
                               sample_heat_field, sample_joint,
                               scaling_exponent_ensemble, spectral_density)
from dynkin_lab.kernels import spectral_envelope, variance_profile
from dynkin_lab.levy import LevyModel
from dynkin_lab.quadrature import NonConvergenceError
from dynkin_lab.verify import (check_discretisation_consistency,
                               check_eta_covariance, check_field_determinism)

BROWNIAN = LevyModel.brownian(1.0)
STABLE = LevyModel.stable(1.5, 1.0)


def test_density_additivity_exact():
    xi = np.geomspace(1e-3, 1e3, 200)
    for alpha in (0.5, 2.0):
        for t in (0.25, 1.0):
            fv = spectral_density("V", BROWNIAN, alpha, t, xi)
            fs = spectral_density("S", BROWNIAN, alpha, t, xi)
            fe = spectral_density("eta", BROWNIAN, alpha, t, xi)
            assert np.all(np.abs(fv + fs - fe) <= 1e-15 * fe)


def test_density_eta_integral_matches_potential():
    grid = SpectralGrid(4096.0, 1 << 16)
    total = 2 * np.sum(spectral_density("eta", BROWNIAN, 2.0, None,
                                        grid.frequencies)) * grid.delta_xi
    tail = 1.0 / (2 * math.pi * grid.cutoff)  # mass beyond the cutoff
    assert total + tail == pytest.approx(0.25, rel=1e-6)


def test_density_heat_origin_limit():
    t = 0.7
    assert spectral_density("U", BROWNIAN, None, t, 0.0) == \
        pytest.approx(t / (2 * math.pi), rel=1e-12)


def test_density_stable_tail():
    xi = 1e6
    f = spectral_density("eta", STABLE, 1.0, None, xi)
    assert f == pytest.approx(1.0 / (4 * math.pi * xi ** 1.5), rel=1e-5)


def test_density_is_kernel_envelope_over_two_pi():
    xi = np.geomspace(1e-3, 1e3, 61)
    for kind, kernel in (("eta", "potential"), ("V", "varV"), ("S", "varS"),
                         ("U", "varU")):
        env = spectral_envelope(kernel, STABLE, 1.5, 0.4)(xi)
        for n in (0, 1):
            f = spectral_density(kind, STABLE, 1.5, 0.4, xi,
                                 derivative_order=n)
            want = env * xi ** (2 * n)
            assert np.all(np.abs(2 * math.pi * f - want) <= 1e-15 * want)


def test_density_validation():
    with pytest.raises(ValueError):
        spectral_density("eta", BROWNIAN, 0.0, None, 1.0)
    with pytest.raises(ValueError):
        spectral_density("S", BROWNIAN, 1.0, None, 1.0)
    with pytest.raises(ValueError):
        spectral_density("nope", BROWNIAN, 1.0, 1.0, 1.0)


def test_sample_determinism_and_exact_sum():
    res = check_field_determinism(BROWNIAN, 99, 1.0, 1.0)
    assert res.passed, res.detail


def test_discretisation_bias_covers_the_grid_gap():
    res = check_discretisation_consistency(BROWNIAN, 0, 1.0, 1.0)
    assert res.passed, res.detail


def test_different_replicates_differ():
    grid = SpectralGrid(128.0, 512)
    x = np.array([0.0, 1.0])
    a = sample_joint(BROWNIAN, 2.0, 1.0, grid, x, seed=99, replicate=0)
    b = sample_joint(BROWNIAN, 2.0, 1.0, grid, x, seed=99, replicate=1)
    assert not np.array_equal(a[2].values, b[2].values)


def test_ensemble_matches_sample_joint():
    grid = SpectralGrid(256.0, 1024)
    pts = np.array([0.0, 0.5, 1.25])
    ens = ensemble_values(BROWNIAN, "eta", 2.0, 1.0, grid, pts, 31, 4)
    for r in range(4):
        _, _, eta, _ = sample_joint(BROWNIAN, 2.0, 1.0, grid, pts, seed=31,
                                    replicate=r)
        assert np.allclose(ens[r], eta.values, rtol=1e-10, atol=1e-12)


def _block_rows(monkeypatch, rows, grid):
    # blocks of `rows` rows on this grid
    monkeypatch.setattr(fields, "_BLOCK_DOUBLES", rows * grid.n_modes)


def test_ensemble_batch_independence(monkeypatch):
    grid = SpectralGrid(256.0, 512)
    pts = np.array([0.0, 1.0])
    _block_rows(monkeypatch, 3, grid)
    a = ensemble_values(STABLE, "V", 1.0, 0.5, grid, pts, 7, 10)
    c = ensemble_values(STABLE, "V", 1.0, 0.5, grid, pts, 7, 10)
    _block_rows(monkeypatch, 512, grid)
    b = ensemble_values(STABLE, "V", 1.0, 0.5, grid, pts, 7, 10)
    # blocking only regroups matrix products: agreement to reduction-order
    # rounding, and identical blocks are bit-identical
    assert np.allclose(a, b, rtol=1e-12, atol=1e-14)
    assert np.array_equal(a, c)


def _dense_route(monkeypatch):
    monkeypatch.setattr(fields, "_fft_length", lambda x, grid: None)


def test_fft_route_matches_the_dense_oracle(monkeypatch):
    # N = 2 pi / (dx dxi) = 4096 > n_modes, and N = 256 < n_modes, where
    # modes k and k + N fold onto one FFT bin
    grid = SpectralGrid(64.0, 1024)
    cases = [(0.0, 2.0 * math.pi / (4096 * grid.delta_xi), 128),
             (-0.37, 2.0 * math.pi / (4096 * grid.delta_xi), 128),
             (1.3, 2.0 * math.pi / (256 * grid.delta_xi), 64)]
    for x0, dx, n in cases:
        x = x0 + np.arange(n) * dx
        assert fields._fft_length(x, grid) is not None
        for model in (BROWNIAN, STABLE):
            for order in (0, 1, 2, 3):
                fast = sample_joint(model, 1.0, 0.5, grid, x, seed=4,
                                    replicate=2, derivative_order=order)
                with monkeypatch.context() as m:
                    _dense_route(m)
                    slow = sample_joint(model, 1.0, 0.5, grid, x, seed=4,
                                        replicate=2, derivative_order=order)
                for f, s in zip(fast, slow):
                    scale = np.max(np.abs(s.values))
                    assert np.max(np.abs(f.values - s.values)) \
                        <= 1e-12 * scale
                assert np.array_equal(fast[2].values,
                                      fast[0].values + fast[1].values)
            fast = sample_heat_field(model, 0.5, grid, x, seed=4)
            with monkeypatch.context() as m:
                _dense_route(m)
                slow = sample_heat_field(model, 0.5, grid, x, seed=4)
            assert np.max(np.abs(fast.values - slow.values)) \
                <= 1e-12 * np.max(np.abs(slow.values))


def test_cli_default_grid_takes_the_fft_route(tmp_path, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense synthesis on the default grid")

    monkeypatch.setattr(fields, "_synthesise_dense", dense)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "stable", "beta": 1.5,
                                         "c": 1.0},
                               "synth": {"replications": 4}}))
    assert cli.main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0


def test_dense_route_values_are_unchanged():
    # N = 2 pi / (0.125 * 0.25) = 201.06... is not an integer, so this
    # grid keeps the dense route and the values recorded before the FFT
    # route existed
    grid = SpectralGrid(128.0, 512)
    x = np.linspace(0.0, 4.0, 33)
    assert fields._fft_length(x, grid) is None
    v, s, _, d = sample_joint(BROWNIAN, 2.0, 1.0, grid, x, seed=99,
                              replicate=5, derivative_order=3)
    assert v.values[[0, 16, 32]].tolist() == [
        0.03853353010616384, 0.4260920295094494, -0.8812332175598732]
    assert s.values[[0, 16, 32]].tolist() == [
        -0.10801046151061922, -0.2556295951009369, -0.2014571009995907]
    assert d.values[[0, 16, 32]].tolist() == [
        0.030069277248570052, 0.03095950088817615, -0.07223896680012637]


# ensemble_values(STABLE, kind, 1.0, t, SpectralGrid(256.0, 512),
# [0.0, 0.7], seed=5, replicates=4, derivative_order) in blocks of `rows`
# rows, keyed (kind, t, derivative_order, rows), recorded before the
# amplitude rows were filled on threads
_ENSEMBLE_PINS = {
    ("V", 0.5, 0, 3): [
        [0.5069318882405882, 0.7885721182632588],
        [-0.0356439545693151, -0.29678941186813335],
        [-0.4671288876077205, 0.922872695788576],
        [-0.4327054010920507, 0.07283952623923468]],
    ("V", 0.5, 0, 512): [
        [0.5069318882405883, 0.7885721182632589],
        [-0.03564395456931509, -0.29678941186813346],
        [-0.46712888760772053, 0.922872695788576],
        [-0.4327054010920508, 0.07283952623923495]],
    ("S", 0.5, 0, 3): [
        [0.06445830956326412, 0.05090241483067554],
        [-0.16297986040570567, -0.1427317302525351],
        [-0.1019154068444012, -0.1746960425187319],
        [0.33167252929674007, 0.2128427422754492]],
    ("S", 0.5, 0, 512): [
        [0.0644583095632641, 0.050902414830675584],
        [-0.1629798604057057, -0.1427317302525351],
        [-0.10191540684440122, -0.1746960425187319],
        [0.33167252929674007, 0.21284274227544933]],
    ("eta", None, 0, 3): [
        [0.1179205461727999, 0.2406516115774808],
        [0.35546007458324275, 0.14216341771825738],
        [0.11231935948639166, -0.17429894637064375],
        [-0.8265407018867917, -0.9576728411952056]],
    ("eta", None, 0, 512): [
        [0.11792054617279979, 0.2406516115774807],
        [0.35546007458324275, 0.1421634177182574],
        [0.11231935948639171, -0.17429894637064375],
        [-0.8265407018867909, -0.9576728411952053]],
    ("S", 0.5, 2, 3): [
        [0.07759875300909533, -0.0989371009126534],
        [0.09832453709824093, 0.06893462476019474],
        [-0.20916095821073502, -0.06368741838726963],
        [-0.1601090264635198, 0.2484803528077199]],
    ("S", 0.5, 2, 512): [
        [0.07759875300909533, -0.09893710091265338],
        [0.09832453709824093, 0.06893462476019474],
        [-0.20916095821073505, -0.06368741838726964],
        [-0.1601090264635198, 0.24848035280772002]],
}


def test_ensemble_stream_contract(monkeypatch):
    # a row is a pure function of its amplitude streams, so no split of
    # the rows over threads can move a bit; 3 workers with a short switch
    # interval make the threads interleave
    grid = SpectralGrid(256.0, 512)
    pts = np.array([0.0, 0.7])
    interval = sys.getswitchinterval()
    try:
        for workers in (None, 1, 3):
            if workers is not None:
                monkeypatch.setattr(rng, "workers", lambda w=workers: w)
                sys.setswitchinterval(1e-5 if workers > 1 else interval)
            for (kind, t, order, rows), want in _ENSEMBLE_PINS.items():
                _block_rows(monkeypatch, rows, grid)
                got = ensemble_values(STABLE, kind, 1.0, t, grid, pts, 5, 4,
                                      derivative_order=order)
                assert got.tolist() == want, (kind, t, order, rows,
                                              workers)
    finally:
        sys.setswitchinterval(interval)


def test_derivative_order_is_checked():
    # V, U and eta have no derivative field here; the order used to be
    # ignored for them, and a negative order synthesised an antiderivative
    grid = SpectralGrid(64.0, 128)
    pts = np.array([0.0, 0.5])
    for kind, alpha, t in (("V", 1.0, 0.5), ("U", None, 0.5),
                           ("eta", 1.0, None), ("eta", 1.0, 0.5)):
        with pytest.raises(ValueError, match="derivative_order"):
            ensemble_values(STABLE, kind, alpha, t, grid, pts, 1, 2,
                            derivative_order=2)
    with pytest.raises(ValueError, match="derivative_order"):
        ensemble_values(STABLE, "S", 1.0, 0.5, grid, pts, 1, 2,
                        derivative_order=-1)
    with pytest.raises(ValueError, match="derivative_order"):
        sample_joint(STABLE, 1.0, 0.5, grid, pts, seed=1,
                     derivative_order=-1)


def test_derivative_reuses_the_s_draws(drawn_components):
    # V and S draw two streams each; the derivative field reads the S draws
    sample_joint(STABLE, 1.0, 0.5, SpectralGrid(64.0, 128),
                 np.linspace(0.0, 1.0, 5), seed=1, derivative_order=2)
    assert sorted(drawn_components) == [0, 1, 2, 3]


def test_heat_field_variance_small_t():
    grid = SpectralGrid(512.0, 4096)
    vals = ensemble_values(BROWNIAN, "U", None, 1e-6, grid,
                           np.array([0.0]), 13, 4000)
    assert float(np.mean(vals**2)) < 1e-3


def test_heat_field_variance_matches_profile():
    grid = SpectralGrid(1024.0, 8192)
    reps = 20000
    vals = ensemble_values(STABLE, "U", None, 1.0, grid, np.array([0.0]),
                           17, reps)
    emp = float(np.mean(vals**2))
    exact = variance_profile(STABLE, 1.0, 1.0).varU
    bias = fields.discretisation_bias("U", STABLE, None, 1.0, grid).total
    se = emp * math.sqrt(2.0 / reps)
    assert abs(emp - exact) <= 3 * se + bias


def test_heat_field_requires_integrable_density():
    grid = SpectralGrid(512.0, 1024)
    with pytest.raises(NonConvergenceError):
        sample_heat_field(LevyModel.stable(1.0, 1.0), 1.0, grid,
                          np.array([0.0]), seed=1)


def test_covariance_against_kernel_small():
    # 20,000 replicates
    res = check_eta_covariance(BROWNIAN, 23, 2.0, 1.0)
    assert res.passed, res.detail


def test_covariance_check_draws_eta_from_its_own_pair(drawn_components):
    # two streams per replicate, eta's own pair, where V + S took four;
    # scale 0 gives the floor of 2,000 replicates
    check_eta_covariance(BROWNIAN, 23, 0.0, 1.0)
    assert len(drawn_components) == 2 * 2000
    assert drawn_components.count(6) == drawn_components.count(7) == 2000


def test_tail_variance_below_cable_variance_at_halving_time():
    # at t = ln 2 / alpha the comparison constant is exactly one
    alpha, t = 1.0, math.log(2.0)
    grid = SpectralGrid(1024.0, 4096)
    reps = 20000
    pt = np.array([0.0])
    vs = ensemble_values(BROWNIAN, "V", alpha, t, grid, pt, 41, reps)[:, 0]
    ss = ensemble_values(BROWNIAN, "S", alpha, t, grid, pt, 41, reps)[:, 0]
    se = math.hypot(float(np.std(vs**2)), float(np.std(ss**2))) \
        / math.sqrt(reps)
    assert float(np.mean(ss**2)) <= float(np.mean(vs**2)) + 3 * se


def test_derivative_field_is_exact_spectral_derivative():
    # compare the synthesised first derivative against a centred difference
    # of the same S sample on a fine grid
    grid = SpectralGrid(64.0, 512)
    h = 1e-5
    x = np.array([1.0 - h, 1.0, 1.0 + h])
    _, s, _, d1 = sample_joint(STABLE, 1.0, 0.5, grid, x, seed=3,
                               replicate=0, derivative_order=1)
    fd = (s.values[2] - s.values[0]) / (2 * h)
    assert d1.values[1] == pytest.approx(fd, rel=1e-5)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(-1.0, 16)
    with pytest.raises(ValueError):
        SpectralGrid(16.0, 1)
    grid = SpectralGrid.default(BROWNIAN, alpha=1.0)
    assert grid.n_modes == 1 << 14
    assert grid.cutoff == pytest.approx(256.0 * 2.0 ** 0.5)


def test_scaling_band_validation():
    # the lag rule runs before any field value is drawn
    grid = SpectralGrid(512.0, 2048)

    def fit(lags):
        return scaling_exponent_ensemble(BROWNIAN, "eta", 0.01, None, grid,
                                         lags, seed=5, replicates=4)

    with pytest.raises(ValueError, match="decades"):
        fit([0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12])
    with pytest.raises(ValueError, match="at least 8"):
        fit([0.05, 1.6])
    with pytest.raises(ValueError, match="resolved band"):
        fit([1e-4 * 2 ** (k / 2) for k in range(11)])


def test_scaling_ensemble_route_consistency():
    grid = SpectralGrid(2048.0, 8192)
    lags = 0.04 * 2.0 ** (np.arange(11) / 2.0)
    fit = scaling_exponent_ensemble(BROWNIAN, "eta", 0.005, None, grid,
                                    lags, seed=12, replicates=256)
    assert fit.slope == pytest.approx(1.0, abs=0.08)


def test_field_csv_export_roundtrip(tmp_path, capsys):
    # synth exports each field as a CSV table that reads back bit for bit
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "brownian", "kappa": 1.0}, "seed": 2,
        "synth": {"alpha": 1.0, "t": 1.0,
                  "grid": {"cutoff": 64.0, "modes": 128},
                  "x_points": 2, "x_step": 0.25, "replications": 8}}))
    texts = []
    for out in ("a", "b"):
        assert cli.main(["synth", "--config", str(cfg), "--out",
                         str(tmp_path / out)]) == 0
        texts.append((tmp_path / out / "field_eta.csv").read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[1].startswith("# kind=eta alpha=1.0 t=1.0 ")
    assert " seed=2 " in lines[1]
    assert lines[2] == "x,value"
    assert lines[-1].split(",")[0] == repr(0.25)
    _, _, eta, _ = sample_joint(BROWNIAN, 1.0, 1.0, SpectralGrid(64.0, 128),
                                np.array([0.0, 0.25]), seed=2)
    assert [tuple(map(float, ln.split(","))) for ln in lines[3:]] == \
        list(zip(eta.x, eta.values))

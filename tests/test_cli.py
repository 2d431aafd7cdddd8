import hashlib
import json
import math
import os
import re
import stat
import time

import numpy as np
import pytest

from dynkin_lab import fields, verify
from dynkin_lab.cli import main
from dynkin_lab.config import ConfigError, parse_config
from dynkin_lab.fields import DEFAULT_MODES, SpectralGrid
from dynkin_lab.levy import LevyModel

MINIMAL = {"model": {"kind": "stable", "beta": 1.5, "c": 1.0}}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_minimal_fills_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.model.kind == "stable"
    assert cfg.seed == 12345
    assert cfg.kernel["tolerance"] == 1e-6
    assert cfg.spde["modes"] == 513
    assert cfg.localtime["t"] == pytest.approx(math.log(2.0))


def test_parse_rejects_beta_out_of_range():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"model": {"kind": "stable", "beta": 2.5}}))
    assert any("beta must lie in (0,2]" in e for e in exc.value.errors)


def test_parse_rejects_unknown_key_with_path():
    bad = dict(MINIMAL, synth={"alpha_": 1.0})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    assert any("synth.alpha_" in e for e in exc.value.errors)


def test_parse_collects_all_errors():
    bad = {"model": {"kind": "stable", "beta": 2.5},
           "spde": {"modes": 64, "dt": -1.0},
           "bogus": 1}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(bad))
    msgs = "\n".join(exc.value.errors)
    assert "beta" in msgs and "spde.modes" in msgs and "spde.dt" in msgs \
        and "config.bogus" in msgs
    assert len(exc.value.errors) >= 4


def test_parse_syntax_error_reports_position():
    with pytest.raises(ConfigError) as exc:
        parse_config("{\n  \"model\": }")
    assert "line 2" in exc.value.errors[0]


def test_parse_khintchine_model():
    payload = {"model": {"kind": "khintchine", "sigma2": 0.5,
                         "nu": {"family": "power_law", "coeff": 0.3,
                                "beta": 1.2}}}
    cfg = parse_config(json.dumps(payload))
    assert cfg.model.sigma2 == 0.5


def test_cli_bad_config_exit_2(tmp_path, capsys):
    path = write_cfg(tmp_path, {"model": {"kind": "stable", "beta": 3.0}})
    assert main(["check", "--config", path]) == 2
    assert "beta" in capsys.readouterr().err


def test_cli_check_section_validated_exit_2(tmp_path, capsys):
    for key, val in (("points_per_decade", 3.33), ("xi_min", "a")):
        path = write_cfg(tmp_path, dict(MINIMAL, check={key: val}))
        assert main(["check", "--config", path]) == 2
        assert f"check.{key}" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_check_stable(tmp_path, capsys):
    payload = dict(MINIMAL, out_dir=str(tmp_path / "out"),
                   check={"alpha": 1.0})
    code = main(["check", "--config", write_cfg(tmp_path, payload)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dalang: satisfied-numerically" in out
    assert (tmp_path / "out" / "check.csv").exists()


def test_cli_check_grid_below_one_hawkes_inconclusive(tmp_path, capsys):
    # no xi above 1: the hawkes trend table is empty
    payload = dict(MINIMAL, out_dir=str(tmp_path / "out"),
                   check={"xi_min": 0.1, "xi_max": 0.9})
    assert main(["check", "--config", write_cfg(tmp_path, payload)]) == 0
    assert "hawkes: inconclusive" in capsys.readouterr().out


def test_cli_kernel_nonconvergent_exit_3(tmp_path, capsys):
    payload = {"model": {"kind": "stable", "beta": 1.0, "c": 1.0},
               "out_dir": str(tmp_path / "out"),
               "kernel": {"alphas": [1.0], "ts": [1.0], "rs": [0.0]}}
    code = main(["kernel", "--config", write_cfg(tmp_path, payload)])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-convergence" in err
    # the walk's partial sum and remainder estimate are reported
    assert "partial value " in err and "remainder " in err


def test_cli_kernel_writes_provenance(tmp_path, capsys):
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "seed": 77, "out_dir": str(tmp_path / "out"),
               "kernel": {"alphas": [2.0], "ts": [1.0], "rs": [0.0, 1.0]}}
    assert main(["kernel", "--config", write_cfg(tmp_path, payload)]) == 0
    text = (tmp_path / "out" / "kernels.csv").read_text()
    assert text.startswith("# dynkin-lab")
    assert "seed=77" in text and "command=kernel" in text
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows[0] == "alpha,t,r,u_alpha,pbar"
    first = rows[1].split(",")
    assert float(first[3]) == pytest.approx(0.25, abs=1e-8)


def test_cli_kernel_computes_pbar_once_per_t_and_r(tmp_path, capsys,
                                                   monkeypatch):
    # p-bar does not depend on alpha: the default 3 alphas x 2 ts x 3 rs
    # need 6 p-bar values, not 18
    import dynkin_lab.cli as cli
    original, calls = cli.pbar_density, []

    def counted(model, t, r):
        calls.append((t, r))
        return original(model, t, r)

    monkeypatch.setattr(cli, "pbar_density", counted)
    payload = dict(MINIMAL, out_dir=str(tmp_path / "out"))
    assert main(["kernel", "--config", write_cfg(tmp_path, payload)]) == 0
    sec = parse_config(json.dumps(MINIMAL)).kernel
    assert len(sec["alphas"]) > 1
    assert sorted(calls) == sorted((t, r) for t in sec["ts"]
                                   for r in sec["rs"])


def test_cli_kernel_computes_u_alpha_once_per_alpha_and_r(tmp_path, capsys,
                                                          monkeypatch):
    # u_alpha does not depend on t: the default 3 alphas x 2 ts x 3 rs
    # need 9 u_alpha values, not 18
    import dynkin_lab.cli as cli
    original, calls = cli.u_alpha, []

    def counted(model, alpha, r):
        calls.append((alpha, r))
        return original(model, alpha, r)

    monkeypatch.setattr(cli, "u_alpha", counted)
    payload = dict(MINIMAL, out_dir=str(tmp_path / "out"))
    assert main(["kernel", "--config", write_cfg(tmp_path, payload)]) == 0
    sec = parse_config(json.dumps(MINIMAL)).kernel
    assert len(sec["ts"]) > 1
    assert sorted(calls) == sorted((a, r) for a in sec["alphas"]
                                   for r in sec["rs"])


def test_cli_outputs_follow_the_umask(tmp_path, capsys):
    # written as open(path, "w") would write them: 0o666 less the umask
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "out_dir": str(tmp_path / "out"),
               "kernel": {"alphas": [1.0], "ts": [1.0], "rs": [0.0]}}
    cfg = write_cfg(tmp_path, payload)
    previous = os.umask(0o022)
    try:
        assert main(["kernel", "--config", cfg]) == 0
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode)
             for path in (tmp_path / "out").iterdir()}
    assert modes == {"kernels.csv": 0o644, "variances.csv": 0o644,
                     "kernel_summary.txt": 0o644}


def test_verify_times_checks_on_a_monotonic_clock(monkeypatch):
    # a wall clock that steps back must not make a check's time negative
    wall = iter(range(1000, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(wall)))
    monkeypatch.setitem(verify.SUITES, "clock", [
        lambda *args: verify.CheckResult("clock", "noop", True, "")])
    results = verify.run_suites(["clock"], LevyModel.brownian(1.0), 1)
    assert [r.seconds >= 0.0 for r in results] == [True]


def test_cli_kernel_narrow_envelopes_are_not_zero(tmp_path, capsys):
    # at t = 100 or r = 0.001 the pbar and varS envelopes of brownian(1)
    # miss every node of their first quadrature panel
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "out_dir": str(tmp_path / "out"),
               "kernel": {"alphas": [1e-3], "ts": [1.0, 100.0],
                          "rs": [0.0, 0.001]}}
    assert main(["kernel", "--config", write_cfg(tmp_path, payload)]) == 0

    def rows(name):
        text = (tmp_path / "out" / name).read_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        return [[float(v) for v in ln.split(",")] for ln in lines[1:]]

    kernels = rows("kernels.csv")
    assert len(kernels) == 4
    for _, t, r, _, pbar in kernels:
        exact = math.exp(-r * r / (8 * t)) / math.sqrt(8 * math.pi * t)
        assert pbar == pytest.approx(exact, rel=1e-9), (t, r)
    variances = rows("variances.csv")
    assert len(variances) == 2
    for _, t, _, var_v, var_s, var_eta, _ in variances:
        assert var_v + var_s == pytest.approx(var_eta, rel=1e-9), t


def test_cli_synth_deterministic_outputs(tmp_path, capsys):
    payload = {"model": {"kind": "brownian", "kappa": 1.0}, "seed": 5,
               "synth": {"alpha": 2.0, "t": 1.0,
                         "grid": {"cutoff": 128.0, "modes": 512},
                         "x_points": 32, "replications": 200}}
    p = write_cfg(tmp_path, payload)
    assert main(["synth", "--config", p, "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--config", p, "--out", str(tmp_path / "b")]) == 0
    for name in ("field_eta.csv", "field_V.csv", "field_S.csv",
                 "ensemble_stats.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_synth_draws_eta_from_its_own_pair(tmp_path, capsys,
                                               drawn_components):
    # eta's law reads no t, so the ensemble draws eta's own pair (6, 7):
    # two streams per replicate, and four more for sample_joint's V and S
    reps, alpha = 20, 2.0
    model, grid = LevyModel.brownian(1.0), SpectralGrid(64.0, 256)
    payload = {"model": {"kind": "brownian", "kappa": 1.0}, "seed": 7,
               "out_dir": str(tmp_path / "out"),
               "synth": {"alpha": alpha, "t": 1.0,
                         "grid": {"cutoff": 64.0, "modes": 256},
                         "x_points": 8, "replications": reps,
                         "lags": [0.0, 1.0, 0.5]}}
    assert main(["synth", "--config", write_cfg(tmp_path, payload)]) == 0
    components = list(drawn_components)
    assert len(components) == 2 * reps + 4
    assert sorted(set(components)) == [0, 1, 2, 3, 6, 7]
    assert components.count(6) == components.count(7) == reps
    pts = np.array([0.0, 0.5, 1.0])
    vals = fields.ensemble_values(model, "eta", alpha, None, grid, pts, 7,
                                  reps)
    text = (tmp_path / "out" / "ensemble_stats.csv").read_text()
    rows = [ln.split(",") for ln in text.splitlines()[2:]]
    assert len(rows) == 3
    for lag, emp, _, se in rows:
        j = int(np.flatnonzero(pts == float(lag))[0])
        assert (float(emp), float(se)) == fields.ensemble_covariance(vals, j)


def test_cli_synth_grid_keys(tmp_path, capsys):
    # each grid key overrides its own half of SpectralGrid.default alone
    default = SpectralGrid.default(LevyModel.brownian(1.0), 2.0)
    assert default.n_modes == DEFAULT_MODES
    for gspec, want in (
            ({}, (default.cutoff, DEFAULT_MODES)),
            ({"cutoff": 64.0}, (64.0, DEFAULT_MODES)),
            ({"modes": 256}, (default.cutoff, 256)),
            ({"cutoff": 64.0, "modes": 256}, (64.0, 256))):
        payload = {"model": {"kind": "brownian", "kappa": 1.0},
                   "synth": {"alpha": 2.0, "t": 1.0, "grid": gspec,
                             "x_points": 8, "replications": 2}}
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert main(["synth", "--config", write_cfg(tmp_path, payload),
                     "--out", str(out)]) == 0
        head = (out / "field_eta.csv").read_text().splitlines()[1]
        assert f"cutoff={want[0]!r} modes={want[1]} " in head, (gspec, head)


def test_cli_seed_flag_wins(tmp_path, capsys):
    payload = {"model": {"kind": "brownian", "kappa": 1.0}, "seed": 5,
               "synth": {"alpha": 2.0, "t": 1.0,
                         "grid": {"cutoff": 128.0, "modes": 512},
                         "x_points": 16, "replications": 50}}
    p = write_cfg(tmp_path, payload)
    main(["synth", "--config", p, "--out", str(tmp_path / "a")])
    main(["synth", "--config", p, "--out", str(tmp_path / "b"),
          "--seed", "6"])
    assert (tmp_path / "a" / "field_eta.csv").read_text() != \
        (tmp_path / "b" / "field_eta.csv").read_text()


def test_cli_spde_smoke(tmp_path, capsys):
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "out_dir": str(tmp_path / "out"),
               "spde": {"circumference": 32.0, "modes": 65, "alpha": 2.0,
                        "dt": 0.1, "t_end": 1.0, "paths": 200,
                        "probes": [0.0, 8.0]}}
    assert main(["spde", "--config", write_cfg(tmp_path, payload)]) == 0
    lines = (tmp_path / "out" / "moments.csv").read_text().splitlines()
    assert lines[0].startswith("# dynkin-lab ")
    assert lines[1] == "t,x,mean,var,exact_var,stderr,paths"


def test_cli_localtime_resolvent_smoke(tmp_path, capsys):
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "out_dir": str(tmp_path / "out"),
               "localtime": {"experiment": "resolvent", "beta": 2.0,
                             "c": 1.0, "alpha": 2.0, "a": 0.0, "b": 0.0,
                             "t": 0.5, "dt": 2e-4, "eps": 0.03,
                             "paths": 4000}}
    assert main(["localtime", "--config", write_cfg(tmp_path, payload)]) == 0
    text = (tmp_path / "out" / "localtime.csv").read_text()
    assert "alpha,t,a,b,lhs,rhs" in text


def test_cli_localtime_corollary_smoke(tmp_path, capsys):
    # 4000 paths put about 2000 in each clock bin, above the 500 minimum
    payload = {"model": {"kind": "stable", "beta": 1.5, "c": 0.5},
               "out_dir": str(tmp_path / "out"),
               "localtime": {"experiment": "corollary", "beta": 1.5,
                             "c": 0.5, "alpha": 1.0, "a": 0.0, "b": 1.0,
                             "t": math.log(2.0), "dt": 1e-3,
                             "paths": 4000}}
    assert main(["localtime", "--config", write_cfg(tmp_path, payload)]) == 0
    text = (tmp_path / "out" / "localtime.csv").read_text()
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows[0].endswith(",verdict")
    assert rows[1].split(",")[-1] == "True"


@pytest.mark.parametrize("command,section,message", [
    ("spde", {"spde": {"circumference": 1, "modes": 17, "alpha": 0.5,
                       "dt": 0.1}},
     "torus too small: image-sum correction 121.306%"),
    ("localtime", {"localtime": {"experiment": "corollary", "beta": 2,
                                 "alpha": 1, "dt": 0.01, "paths": 40}},
     "conditioning bins have 15 (S>=t) and 25 (S<t) paths"),
], ids=["spde-small-torus", "corollary-few-paths"])
def test_cli_run_error_exit_2(tmp_path, capsys, command, section, message):
    # a ValueError or OccupancyError raised by the run itself
    payload = dict(section, model={"kind": "brownian", "kappa": 1.0},
                   out_dir=str(tmp_path / "out"))
    assert main([command, "--config", write_cfg(tmp_path, payload)]) == 2
    assert message in capsys.readouterr().err


def test_cli_verify_suite_kernels(tmp_path, capsys):
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "out_dir": str(tmp_path / "out")}
    code = main(["verify", "--config", write_cfg(tmp_path, payload),
                 "--suite", "kernels"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernels/green-bound" in out
    assert "FAIL" not in out
    assert (tmp_path / "out" / "verify.csv").exists()


_BROWNIAN = {"kind": "brownian", "kappa": 1.0}
_STABLE = {"kind": "stable", "beta": 1.5, "c": 1.0}
# the batched jump exponents and a khintchine cosine transform
_KHINTCHINE = {"kind": "khintchine", "sigma2": 0, "nu": {
    "family": "power_law", "coeff": 1, "beta": 1.2}}
# small runs of every subcommand; integer-valued entries pin, column by
# column, whether a config's 2 is written as 2 or as 2.0
_OUTPUT_CASES = {
    "check": ("check", _STABLE, {"check": {
        "alpha": 1, "xi_max": 1e3, "eps_min": 1e-3,
        "points_per_decade": 4}}),
    "check-khintchine": ("check", _KHINTCHINE, {"check": {
        "alpha": 1, "xi_max": 1e3, "eps_min": 1e-2,
        "points_per_decade": 4}}),
    "kernel": ("kernel", _BROWNIAN, {"kernel": {
        "alphas": [2, 0.5], "ts": [1], "rs": [0, 1.5]}}),
    "kernel-khintchine": ("kernel", _KHINTCHINE, {"kernel": {
        "alphas": [1], "ts": [0.5], "rs": [0, 0.5, 2]}}),
    "synth": ("synth", _BROWNIAN, {"synth": {
        "alpha": 2, "t": 1, "grid": {"cutoff": 64, "modes": 256},
        "x_points": 8, "replications": 20, "lags": [0, 1, 0.5]}}),
    "synth-derivative": ("synth", _STABLE, {"synth": {
        "alpha": 2.0, "t": 1.0, "grid": {"cutoff": 64.0, "modes": 256},
        "x_points": 8, "replications": 20, "derivative_order": 2}}),
    "spde": ("spde", _BROWNIAN, {"spde": {
        "circumference": 16, "modes": 17, "alpha": 2, "dt": 0.1,
        "t_end": 1, "paths": 20, "probes": [0, 1.5, 4]}}),
    "spde-heat": ("spde", _STABLE, {"spde": {
        "circumference": 16.0, "modes": 17, "alpha": 0, "dt": 0.1,
        "t_end": 1.0, "paths": 20, "probes": [0.0, 3]}}),
    "resolvent": ("localtime", _BROWNIAN, {"localtime": {
        "experiment": "resolvent", "beta": 2, "c": 1, "alpha": 2, "a": 0,
        "b": 0, "dt": 0.01, "eps": 0.1, "paths": 50}}),
    "corollary": ("localtime", _STABLE, {"localtime": {
        "experiment": "corollary", "beta": 1.5, "c": 1.0, "alpha": 1,
        "a": 0, "b": 1, "dt": 0.02, "paths": 1200}}),
    "verify": ("verify", _BROWNIAN, {"verify": {"suites": ["levy"]}}),
    "verify-spde": ("verify", _BROWNIAN, {"verify": {
        "suites": ["spde"], "paths_scale": 0.1}}),
    "verify-localtime": ("verify", _BROWNIAN, {"verify": {
        "suites": ["localtime"], "paths_scale": 0.1}}),
    "verify-kernels": ("verify", _BROWNIAN, {"verify": {
        "suites": ["kernels"]}}),
}
# SHA-256 of every file written, timings masked: a change to any output's
# bytes has to update these on purpose
_OUTPUT_DIGESTS = {
    ("check", "check.csv"):
        "1115b87d649b5e8a0dc90e2b3c22c76528a14d469cb8f072f239758ce3416a5c",
    ("check", "check_summary.txt"):
        "e1a0ac355c9039f9bfcb70d08755b4fa0d9178d9d2f0a8062815c1c67d0f80a0",
    ("check-khintchine", "check.csv"):
        "e232c51adfa97cfe38909aeb925b622eb171b2b1249890f222ca8b5c019b05c6",
    ("check-khintchine", "check_summary.txt"):
        "5cc4aa0cd20d257143bc1dd299b2ba6b00712337a362db9d0ba4aa5a6870d8c8",
    ("kernel", "kernel_summary.txt"):
        "4ecbc8b4861fc47779640db911581c8f724d6413caf27c2d91f4408924ebb765",
    ("kernel", "kernels.csv"):
        "3c2cd45f160e67fd049ac84ba46ab00896f29e0d19716bd3fc71d728339b5788",
    ("kernel", "variances.csv"):
        "c68fe3238353a936ab36089c1258717cd25f67da1de0e1860a119f2118f64f2f",
    ("kernel-khintchine", "kernel_summary.txt"):
        "0c0a397a5c9b43efabc3face467c88646fcf78b13969928f64c77a5c7895d733",
    ("kernel-khintchine", "kernels.csv"):
        "91e717367a2966c00028a652cee8cc24003e4eaf490d07fd43782601c51f2712",
    ("kernel-khintchine", "variances.csv"):
        "1ec9485a9b1d1319136563c8d0c43da3f44fe28d5301e6f823caef28be87e9c1",
    ("synth", "ensemble_stats.csv"):
        "90770c9e8307521b16e276d6364d4240aa5f03b248127b20dc7870acdc4f12ef",
    ("synth", "field_S.csv"):
        "a03d7c622e29cb098f8ba89744c787d3d28a05bc84eb368663815f2a94a06750",
    ("synth", "field_V.csv"):
        "dd1f218ca6cca36890c7500cc54cd242b1757c3b50ff6036d68c5f4bf2889197",
    ("synth", "field_eta.csv"):
        "ea2f5adf46c42d1b1ad7d1279c8eb12ccfa6c2bf6ebb1d59150a789a6678df97",
    ("synth", "synth_summary.txt"):
        "9ed25f93bf6b7304ce91e10443898e6b302832fd812a093e2514d1d37a8b62e3",
    ("synth-derivative", "ensemble_stats.csv"):
        "7da114097339dae0bf93fba42d7a2e6d94e98af70d50a7dad74768190ad67195",
    ("synth-derivative", "field_S.csv"):
        "af340ba93ab836ebb3b2528acfeb0d54882f9141594a84e77e1abc83f3165278",
    ("synth-derivative", "field_S_derivative.csv"):
        "a4fd802d0922b1872c8f67de2195fbb09c5206eecd80c421b46222eacde12686",
    ("synth-derivative", "field_V.csv"):
        "1b41a2787b877c6828542735cf5a0d16266a636a8ab866c9999eff71dab404cc",
    ("synth-derivative", "field_eta.csv"):
        "5b662ddf4297c69588bfa9dd32659800085c398d30efdfa3da645b4bc882e3df",
    ("synth-derivative", "synth_summary.txt"):
        "e470689a85777cc8728aabffae295e129c25dc25159fe8c66a842c094806b1d7",
    ("spde", "covariances.csv"):
        "40ca4cdd8b911dc345736ad289b5d637835cc03e232ff5558931fd6d196809cb",
    ("spde", "moments.csv"):
        "7b449734d7c79b18585234f596bc3be6739ede2f9f76446e49b07da408942035",
    ("spde", "spde_summary.txt"):
        "7aeaaefcac6bb7981588f38038aada9f35886befaa7ac79db8e065a151cf4057",
    ("spde-heat", "covariances.csv"):
        "92cd76c60ad4aad649e1bc0b6e321feba9c60f689d59e3cb0b5f1137a7bd0b7d",
    ("spde-heat", "moments.csv"):
        "ec64eb23efb8ec11a915beeb4e11fe379e26653abfbc9199bbf493cd9c56ca2c",
    ("spde-heat", "spde_summary.txt"):
        "e64099c61becf19abb9ceb35f91148ddb128800ea13d5c422bf2db4368f08add",
    ("resolvent", "localtime.csv"):
        "27c5da34c8dc802ff6c4b86d6c89feda16d0436f2df3eedab1f56a552a857cda",
    ("resolvent", "localtime_summary.txt"):
        "cf8ce0a66ab4500a75382e9e8cfb78964e7554b9cb0d34cecb3a3b587a629e2c",
    ("corollary", "localtime.csv"):
        "ca7313f902f8b5450ec97f930d6cf87e65207b8bc9f368a69261ba75cddec8b7",
    ("corollary", "localtime_summary.txt"):
        "6d5427b3365cf91f8683ed00f34953b9cd3542d2517b573199eb5aa47bc7554b",
    ("verify", "verify.csv"):
        "52889f9528c299ff83cf0c08453c9c0d9b9289d358b676d68c0839764be531e0",
    ("verify", "verify_summary.txt"):
        "c1e624d78ce4ad91f2550230c84f4246bbd4fc135d9905a302ce40530a51e4ec",
    ("verify-spde", "verify.csv"):
        "b300eb02d9fcd30972db0d9803862e7f11ed4b646cfa9a4e23ea2315b5452e24",
    ("verify-spde", "verify_summary.txt"):
        "e45bb3d43db69ae053f2e116648adffc664ecf0372a6a66318d7c774a704ef57",
    ("verify-localtime", "verify.csv"):
        "9b182ba1b7f693b05843ab033144c6b44b3b6fdc50f9b9e4fdd989239b00369a",
    ("verify-localtime", "verify_summary.txt"):
        "73d83950ffdddee55a52282a820be4e697f0af538f7ec7ff198075b99dd1de30",
    ("verify-kernels", "verify.csv"):
        "5aa4d0fda27b675c287be4878a110ae135cada8ba817cba8761d2d12dc238b14",
    ("verify-kernels", "verify_summary.txt"):
        "e0b557aeaf0ce0150cf2acafb2430bae00743b2d959f813ecf2c1159c9f34563",
}


def _mask_timings(name, data):
    if name == "verify.csv":
        return re.sub(rb"(?m)^([^,]*,[^,]*,[^,]*),[0-9.]+,", rb"\1,-,", data)
    if name == "verify_summary.txt":
        return re.sub(rb"\([0-9.]+s\)", b"(-s)", data)
    return data


def test_outputs_byte_identical(tmp_path, capsys):
    digests = {}
    for case, (command, model, sections) in _OUTPUT_CASES.items():
        out = tmp_path / case
        payload = dict(sections, model=model, seed=7, out_dir=str(out))
        assert main([command, "--config", write_cfg(tmp_path, payload)]) == 0
        for path in sorted(out.iterdir()):
            data = _mask_timings(path.name, path.read_bytes())
            digests[case, path.name] = hashlib.sha256(data).hexdigest()
    assert digests == _OUTPUT_DIGESTS


def test_cli_verify_failure_exit_1(tmp_path, capsys):
    # impossible tolerance scale forces a deterministic check to fail
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "out_dir": str(tmp_path / "out"),
               "verify": {"suites": ["levy"], "tolerance_scale": 1e-12}}
    code = main(["verify", "--config", write_cfg(tmp_path, payload)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


# Bad configurations and the exact errors each one got before the config
# became one table per section; compared as sorted lists, because only the
# position of a cross-key message in the list may move.
_KHIN = {"kind": "khintchine"}
_POWER = {"family": "power_law", "coeff": 0.3, "beta": 1.2}


def _model(spec):
    return json.dumps({"model": spec})


def _nu(nu, **extra):
    return _model(dict(_KHIN, nu=nu, **extra))


def _with(**parts):
    return json.dumps(dict(MINIMAL, **parts))


_GOLDEN = [
    ("syntax-missing-value", '{\n  "model": }',
     ["JSON syntax error at line 2, column 12: Expecting value"]),
    ("syntax-trailing-comma", '{"model": {"kind": "brownian"},}',
     ["JSON syntax error at line 1, column 32: Expecting property name "
      "enclosed in double quotes"]),
    ("top-level-array", "[1, 2]", ["top level: expected a JSON object"]),
    ("model-missing", "{}", ["model: required section is missing"]),
    ("model-not-object", json.dumps({"model": 3}),
     ["model: expected an object"]),
    ("model-kind-unknown", _model({"kind": "levy"}),
     ["model.kind: expected one of ['brownian', 'khintchine', 'stable'], "
      "got 'levy'"]),
    ("model-kind-missing", _model({"beta": 1.5}),
     ["model.kind: expected one of ['brownian', 'khintchine', 'stable'], "
      "got None"]),
    ("brownian-kappa-negative-unknown-key",
     _model({"kind": "brownian", "kappa": -1, "sigma": 1}),
     ["model.sigma: unknown key", "model.kappa: must be > 0, got -1"]),
    ("brownian-kappa-string", _model({"kind": "brownian", "kappa": "1"}),
     ["model.kappa: expected a number, got '1'"]),
    ("stable-beta-missing", _model({"kind": "stable"}),
     ["model.beta: expected a number, got None"]),
    ("stable-beta-above-two-c-zero",
     _model({"kind": "stable", "beta": 2.5, "c": 0}),
     ["model.c: must be > 0, got 0", "model.beta: beta must lie in (0,2]"]),
    ("stable-beta-zero-c-bool",
     _model({"kind": "stable", "beta": 0, "c": True}),
     ["model.c: expected a number, got True",
      "model.beta: beta must lie in (0,2]"]),
    ("khintchine-nu-missing", _model(_KHIN),
     ["model.nu: expected an object describing the jump density"]),
    ("khintchine-nu-not-object", _nu([1]),
     ["model.nu: expected an object describing the jump density"]),
    ("khintchine-nu-family-unknown", _nu({"family": "gauss"}),
     ["model.nu.family: expected one of ['power_law', 'table'], "
      "got 'gauss'"]),
    ("khintchine-sigma2-negative", _nu(_POWER, sigma2=-0.5),
     ["model.sigma2: must be >= 0, got -0.5"]),
    ("power-law-fields",
     _nu({"family": "power_law", "beta": 2.0, "z_min": -1, "z_max": 0,
          "scale": 1}),
     ["model.nu.scale: unknown key",
      "model.nu.coeff: expected a number, got None",
      "model.nu.beta: beta must lie in (0,2)",
      "model.nu.z_min: must be >= 0, got -1",
      "model.nu.z_max: must be > 0, got 0"]),
    ("power-law-support-reversed-sigma2-string",
     _nu(dict(_POWER, z_min=2.0, z_max=1.0), sigma2="x"),
     ["model.sigma2: expected a number, got 'x'",
      "model.nu: support must satisfy 0 <= z_min < z_max"]),
    ("table-z-not-array", _nu({"family": "table", "z": 1, "rho": [1, 2]}),
     ["model.nu: table family needs z and rho arrays"]),
    ("table-rho-missing-unknown-key",
     _nu({"family": "table", "z": [1, 2], "w": 0}),
     ["model.nu.w: unknown key",
      "model.nu: table family needs z and rho arrays"]),
    ("table-z-decreasing",
     _nu({"family": "table", "z": [2.0, 1.0], "rho": [1.0, 1.0]}),
     ["model.nu: table abscissae must be positive increasing"]),
    ("table-z-string-element",
     _nu({"family": "table", "z": ["a", 2.0], "rho": [1.0, 1.0]}),
     ["model.nu: could not convert string to float: 'a'"]),
    ("table-rho-negative",
     _nu({"family": "table", "z": [1.0, 2.0], "rho": [1.0, -1.0]}),
     ["model.nu: table densities must be nonnegative"]),
    ("seed-string", _with(seed="abc"), ["seed: expected a number, got 'abc'"]),
    ("seed-fraction", _with(seed=1.5), ["seed: expected an integer, got 1.5"]),
    ("seed-null", _with(seed=None), ["seed: expected a number, got None"]),
    ("out-dir-number", _with(out_dir=5),
     ["out_dir: expected a string, got 5"]),
    ("unknown-top-key-section-not-object", _with(bogus=1, check=[1]),
     ["config.bogus: unknown key", "check: expected an object"]),
    ("sections-not-objects",
     _with(kernel="x", synth=1, spde=True, localtime=[], verify="v"),
     ["kernel: expected an object", "synth: expected an object",
      "spde: expected an object", "localtime: expected an object",
      "verify: expected an object"]),
    ("check-fields",
     _with(check={"alpha": 0, "xi_min": 10.0, "xi_max": 5.0, "eps_min": "x",
                  "points_per_decade": 2.5, "xi": 1}),
     ["check.xi: unknown key", "check.alpha: must be > 0, got 0",
      "check.xi_min: must be below check.xi_max, got 10.0 >= 5.0",
      "check.eps_min: expected a number, got 'x'",
      "check.points_per_decade: expected an integer, got 2.5"]),
    ("check-min-not-below-max-integers",
     _with(check={"xi_min": 4, "xi_max": 2, "eps_min": 1, "eps_max": 1,
                  "points_per_decade": 0}),
     ["check.xi_min: must be below check.xi_max, got 4.0 >= 2.0",
      "check.eps_min: must be below check.eps_max, got 1.0 >= 1.0",
      "check.points_per_decade: must be > 0, got 0"]),
    ("check-null-values", _with(check={"alpha": None, "xi_max": None}),
     ["check.alpha: expected a number, got None",
      "check.xi_max: expected a number, got None"]),
    ("kernel-fields",
     _with(kernel={"alphas": [], "ts": [1, -1, "a"], "rs": "x",
                   "tolerance": 0, "tol": 1}),
     ["kernel.tol: unknown key", "kernel.alphas: expected a nonempty array",
      "kernel.ts[1]: must be > 0, got -1",
      "kernel.ts[2]: expected a number, got 'a'",
      "kernel.rs: expected an array", "kernel.tolerance: must be > 0, got 0"]),
    ("kernel-arrays-wrong-type",
     _with(kernel={"alphas": "a", "ts": None, "tolerance": -1e-6}),
     ["kernel.alphas: expected a nonempty array",
      "kernel.ts: expected a nonempty array",
      "kernel.tolerance: must be > 0, got -1e-06"]),
    ("synth-fields",
     _with(synth={"alpha": -1, "t": "1", "replications": 0, "x_points": 2.5,
                  "x_step": 0, "derivative_order": -1, "lag": 1}),
     ["synth.lag: unknown key", "synth.alpha: must be > 0, got -1",
      "synth.t: expected a number, got '1'",
      "synth.replications: must be > 0, got 0",
      "synth.x_points: expected an integer, got 2.5",
      "synth.x_step: must be > 0, got 0",
      "synth.derivative_order: must be >= 0, got -1"]),
    ("synth-grid-not-object", _with(synth={"grid": 5}),
     ["synth.grid: expected an object"]),
    ("synth-grid-fields",
     _with(synth={"grid": {"cutoff": -1, "modes": 1.5, "bogus": 1}}),
     ["synth.grid.bogus: unknown key",
      "synth.grid.cutoff: must be > 0, got -1",
      "synth.grid.modes: expected an integer, got 1.5"]),
    ("spde-fields",
     _with(spde={"modes": 64, "dt": -1, "alpha": -0.5, "circumference": 0,
                 "t_end": "x", "paths": 0, "probes": []}),
     ["spde.circumference: must be > 0, got 0",
      "spde.modes: mode count must be odd",
      "spde.alpha: must be >= 0, got -0.5", "spde.dt: must be > 0, got -1",
      "spde.t_end: expected a number, got 'x'",
      "spde.paths: must be > 0, got 0",
      "spde.probes: expected a nonempty array"]),
    ("spde-modes-fraction-probes-string",
     _with(spde={"modes": 2.5, "probes": "x"}),
     ["spde.modes: expected an integer, got 2.5",
      "spde.probes: expected a nonempty array"]),
    ("localtime-fields",
     _with(localtime={"experiment": "x", "beta": 1.0, "c": 0, "alpha": 0,
                      "a": "x", "b": None, "t": 0, "dt": -1, "eps": 0,
                      "paths": 1.5}),
     ["localtime.experiment: expected 'resolvent' or 'corollary'",
      "localtime.beta: beta must lie in (1,2]",
      "localtime.c: must be > 0, got 0",
      "localtime.alpha: must be > 0, got 0",
      "localtime.a: expected a number, got 'x'",
      "localtime.b: expected a number, got None",
      "localtime.t: must be > 0, got 0", "localtime.dt: must be > 0, got -1",
      "localtime.eps: must be > 0, got 0",
      "localtime.paths: expected an integer, got 1.5"]),
    ("localtime-beta-above-two-experiment-null",
     _with(localtime={"beta": 2.5, "experiment": None}),
     ["localtime.experiment: expected 'resolvent' or 'corollary'",
      "localtime.beta: beta must lie in (1,2]"]),
    ("verify-fields",
     _with(verify={"suites": [], "paths_scale": 0, "tolerance_scale": "x"}),
     ["verify.suites: expected a nonempty array",
      "verify.paths_scale: must be > 0, got 0",
      "verify.tolerance_scale: expected a number, got 'x'"]),
    ("verify-unknown-suite-unknown-key",
     _with(verify={"suites": ["kernels", "nope"], "suite": "levy"}),
     ["verify.suite: unknown key", "verify.suites: unknown suite 'nope'"]),
    ("null-section-with-errors-elsewhere",
     _with(check=None, spde={"modes": 4}, bogus2=None),
     ["config.bogus2: unknown key", "spde.modes: mode count must be odd"]),
]


@pytest.mark.parametrize("text,expected", [case[1:] for case in _GOLDEN],
                         ids=[case[0] for case in _GOLDEN])
def test_parse_golden_messages(text, expected):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert sorted(exc.value.errors) == sorted(expected)


# json.loads reads NaN and Infinity.  Each of these once got past the checks
# (exit 0) or escaped parse_config as a traceback (exit 1).
@pytest.mark.parametrize("command,sections,named", [
    ("check", '"check": {"alpha": NaN}', "check.alpha"),
    ("kernel", '"kernel": {"alphas": [Infinity], "ts": [1.0], "rs": [0.0]}',
     "kernel.alphas[0]"),
    ("check", '"check": {"points_per_decade": Infinity}',
     "check.points_per_decade"),
    ("spde", '"spde": {"modes": Infinity}', "spde.modes"),
    ("check", '"seed": NaN', "seed"),
], ids=["check-alpha-nan", "kernel-alphas-inf", "points-per-decade-inf",
        "spde-modes-inf", "seed-nan"])
def test_cli_non_finite_number_exit_2(tmp_path, capsys, command, sections,
                                      named):
    path = tmp_path / "cfg.json"
    path.write_text('{"model": {"kind": "stable", "beta": 1.5}, '
                    f'"out_dir": "{tmp_path / "out"}", {sections}}}')
    assert main([command, "--config", str(path)]) == 2
    assert f"{named}: expected a finite number" in capsys.readouterr().err


def test_parse_z_max_infinity_means_null():
    nu = {"family": "power_law", "coeff": 0.3, "beta": 1.2}
    unbounded = parse_config(_nu(dict(nu, z_max=None))).model.nu
    infinite = parse_config(_nu(nu).replace('"beta": 1.2',
                                            '"beta": 1.2, "z_max": Infinity'))
    assert infinite.model.nu.z_max == unbounded.z_max == math.inf
    with pytest.raises(ConfigError) as exc:
        parse_config(_nu(nu).replace('"beta": 1.2', '"beta": 1.2, '
                                     '"z_max": NaN'))
    assert exc.value.errors == [
        "model.nu.z_max: expected a finite number, got nan"]


def test_parse_table_density_must_be_finite():
    with pytest.raises(ConfigError) as exc:
        parse_config(_nu({"family": "table", "z": [1.0, 2.0],
                          "rho": [1.0, 1.0]}).replace("2.0", "Infinity"))
    assert exc.value.errors == ["model.nu: table z and rho must be finite"]


def test_cli_bad_lags_exit_2_naming_key(tmp_path, capsys):
    payload = dict(MINIMAL, out_dir=str(tmp_path / "out"),
                   synth={"x_points": 16, "replications": 20, "lags": "abc"})
    assert main(["synth", "--config", write_cfg(tmp_path, payload)]) == 2
    assert "synth.lags: expected an array" in capsys.readouterr().err


def test_parse_array_elements_named_by_index():
    with pytest.raises(ConfigError) as exc:
        parse_config(_with(kernel={"rs": ["a"]}, spde={"probes": [0.0, "a"]},
                           synth={"lags": [1.0, None]}))
    assert sorted(exc.value.errors) == [
        "kernel.rs[0]: expected a number, got 'a'",
        "spde.probes[1]: expected a number, got 'a'",
        "synth.lags[1]: expected a number, got None"]
    for lags in ([], None, [0.0, 2.5]):
        assert parse_config(_with(synth={"lags": lags})).synth["lags"] == lags


def test_parse_seed_range():
    # rng keys a stream by the seed modulo 2**64: -1 and 2**64 - 1 would
    # draw the same numbers under different provenance headers
    for seed in (-1, 2**64, 1e30):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(seed=seed))
        assert exc.value.errors == ["seed: seed must lie in [0,2**64)"]
    for seed in (0, 2**64 - 1, 7.0):
        assert parse_config(_with(seed=seed)).seed == int(seed)


@pytest.mark.parametrize("flag,value,named", [
    ("--seed", "-1", "seed: seed must lie in [0,2**64)"),
    ("--paths", "0", "spde.paths: must be > 0, got 0"),
    ("--tol", "nan", "kernel.tolerance: expected a finite number, got nan"),
], ids=["seed-negative", "paths-zero", "tol-nan"])
def test_cli_flags_are_validated(tmp_path, capsys, flag, value, named):
    payload = dict(MINIMAL, out_dir=str(tmp_path / "out"),
                   kernel={"alphas": [1.0], "ts": [1.0], "rs": [0.0]})
    argv = ["kernel", "--config", write_cfg(tmp_path, payload), flag, value]
    assert main(argv) == 2
    assert named in capsys.readouterr().err

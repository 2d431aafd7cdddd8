import json
import math
import os

import pytest

from dynkin_lab.cli import main
from dynkin_lab.config import ConfigError, parse_config

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


def test_cli_kernel_nonconvergent_exit_3(tmp_path, capsys):
    payload = {"model": {"kind": "stable", "beta": 1.0, "c": 1.0},
               "out_dir": str(tmp_path / "out"),
               "kernel": {"alphas": [1.0], "ts": [1.0], "rs": [0.0]}}
    code = main(["kernel", "--config", write_cfg(tmp_path, payload)])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


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
    text = (tmp_path / "out" / "moments.csv").read_text()
    assert "t,x,mean,var,exact_var,stderr,paths" in text


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


def test_cli_verify_failure_exit_1(tmp_path, capsys):
    # impossible tolerance scale forces a deterministic check to fail
    payload = {"model": {"kind": "brownian", "kappa": 1.0},
               "out_dir": str(tmp_path / "out"),
               "verify": {"suites": ["levy"], "tolerance_scale": 1e-12}}
    code = main(["verify", "--config", write_cfg(tmp_path, payload)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out

"""Strict JSON experiment configuration.

Unknown keys are rejected with their full path, every physical parameter is
range-checked before any computation, and all validation problems are
collected into one error rather than stopping at the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .levy import LevyMeasure, LevyModel
from .verify import SUITES


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  "
                         + "\n  ".join(self.errors))


_MODEL_KEYS = {
    "brownian": {"kind", "kappa"},
    "stable": {"kind", "beta", "c"},
    "khintchine": {"kind", "sigma2", "nu"},
}
_NU_KEYS = {
    "power_law": {"family", "coeff", "beta", "z_min", "z_max"},
    "table": {"family", "z", "rho"},
}

_DEFAULTS = {
    "seed": 12345,
    "out_dir": "out",
    "check": {"alpha": 1.0, "xi_min": 2.0, "xi_max": 2.0**24,
              "eps_min": 1e-6, "eps_max": 1.0, "points_per_decade": 8},
    "kernel": {"alphas": [0.5, 1.0, 2.0], "ts": [0.5, 1.0],
               "rs": [0.0, 0.5, 1.0], "tolerance": 1e-6},
    "synth": {"alpha": 2.0, "t": 1.0, "grid": None, "x_points": 256,
              "x_step": None, "replications": 2000,
              "derivative_order": None, "lags": None},
    "spde": {"circumference": 64.0, "modes": 513, "alpha": 2.0, "dt": 0.1,
             "t_end": 6.0, "paths": 2000, "probes": [0.0]},
    "localtime": {"experiment": "resolvent", "beta": 2.0, "c": 1.0,
                  "alpha": 2.0, "a": 0.0, "b": 1.0,
                  "t": math.log(2.0), "dt": 1e-4, "eps": None,
                  "paths": 20000},
    "verify": {"suites": list(SUITES), "paths_scale": 1.0,
               "tolerance_scale": 1.0},
}
_SECTION_KEYS = {name: set(sec) for name, sec in _DEFAULTS.items()
                 if isinstance(sec, dict)}
_GRID_KEYS = {"cutoff", "modes"}
_TOP_KEYS = {"model", "seed", "out_dir"} | set(_SECTION_KEYS)


@dataclass
class ExperimentConfig:
    model: LevyModel
    model_spec: dict
    seed: int
    out_dir: str
    check: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)
    synth: dict = field(default_factory=dict)
    spde: dict = field(default_factory=dict)
    localtime: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)


def _require_number(val, path, errors, positive=False, nonnegative=False,
                    integer=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{path}: expected a number, got {val!r}")
        return None
    if integer and int(val) != val:
        errors.append(f"{path}: expected an integer, got {val!r}")
        return None
    if positive and val <= 0:
        errors.append(f"{path}: must be > 0, got {val!r}")
        return None
    if nonnegative and val < 0:
        errors.append(f"{path}: must be >= 0, got {val!r}")
        return None
    return int(val) if integer else float(val)


def _check_unknown(obj, allowed, path, errors):
    for key in obj:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown key")


def _build_model(spec, errors) -> LevyModel | None:
    if not isinstance(spec, dict):
        errors.append("model: expected an object")
        return None
    kind = spec.get("kind")
    if kind not in _MODEL_KEYS:
        errors.append(f"model.kind: expected one of {sorted(_MODEL_KEYS)}, "
                      f"got {kind!r}")
        return None
    _check_unknown(spec, _MODEL_KEYS[kind], "model", errors)
    if kind == "brownian":
        kappa = _require_number(spec.get("kappa", 1.0), "model.kappa",
                                errors, positive=True)
        if errors:
            return None
        return LevyModel.brownian(kappa)
    if kind == "stable":
        beta = _require_number(spec.get("beta"), "model.beta", errors)
        c = _require_number(spec.get("c", 1.0), "model.c", errors,
                            positive=True)
        if beta is not None and not 0.0 < beta <= 2.0:
            errors.append("model.beta: beta must lie in (0,2]")
            beta = None
        if beta is None or c is None:
            return None
        return LevyModel.stable(beta, c)
    sigma2 = _require_number(spec.get("sigma2", 0.0), "model.sigma2",
                             errors, nonnegative=True)
    nu_spec = spec.get("nu")
    if not isinstance(nu_spec, dict):
        errors.append("model.nu: expected an object describing the jump "
                      "density")
        return None
    family = nu_spec.get("family")
    if family not in _NU_KEYS:
        errors.append(f"model.nu.family: expected one of "
                      f"{sorted(_NU_KEYS)}, got {family!r}")
        return None
    _check_unknown(nu_spec, _NU_KEYS[family], "model.nu", errors)
    try:
        if family == "power_law":
            coeff = _require_number(nu_spec.get("coeff"), "model.nu.coeff",
                                    errors, positive=True)
            beta = _require_number(nu_spec.get("beta"), "model.nu.beta",
                                   errors)
            if beta is not None and not 0.0 < beta < 2.0:
                errors.append("model.nu.beta: beta must lie in (0,2)")
                beta = None
            z_min = _require_number(nu_spec.get("z_min", 0.0),
                                    "model.nu.z_min", errors,
                                    nonnegative=True)
            z_max_raw = nu_spec.get("z_max")
            z_max = math.inf if z_max_raw is None else _require_number(
                z_max_raw, "model.nu.z_max", errors, positive=True)
            if None in (coeff, beta, z_min) or z_max is None:
                return None
            nu = LevyMeasure.power_law(coeff, beta, z_min, z_max)
        else:
            z = nu_spec.get("z")
            rho = nu_spec.get("rho")
            if not isinstance(z, list) or not isinstance(rho, list):
                errors.append("model.nu: table family needs z and rho "
                              "arrays")
                return None
            nu = LevyMeasure.from_table(np.array(z, dtype=float),
                                        np.array(rho, dtype=float))
    except ValueError as exc:
        errors.append(f"model.nu: {exc}")
        return None
    if sigma2 is None:
        return None
    return LevyModel.khintchine(sigma2, nu)


def _merge_section(name, given, errors) -> dict:
    merged = dict(_DEFAULTS[name])
    if given is None:
        return merged
    if not isinstance(given, dict):
        errors.append(f"{name}: expected an object")
        return merged
    _check_unknown(given, _SECTION_KEYS[name], name, errors)
    for key, val in given.items():
        if key in _SECTION_KEYS[name]:
            merged[key] = val
    return merged


def _validate_sections(cfg: dict, errors):
    chk = cfg["check"]
    _require_number(chk.get("alpha"), "check.alpha", errors, positive=True)
    for lo_key, hi_key in (("xi_min", "xi_max"), ("eps_min", "eps_max")):
        lo = _require_number(chk.get(lo_key), f"check.{lo_key}", errors,
                             positive=True)
        hi = _require_number(chk.get(hi_key), f"check.{hi_key}", errors,
                             positive=True)
        if lo is not None and hi is not None and lo >= hi:
            errors.append(f"check.{lo_key}: must be below check.{hi_key}, "
                          f"got {lo!r} >= {hi!r}")
    _require_number(chk.get("points_per_decade"), "check.points_per_decade",
                    errors, positive=True, integer=True)

    ker = cfg["kernel"]
    for key in ("alphas", "ts"):
        vals = ker.get(key)
        if not isinstance(vals, list) or not vals:
            errors.append(f"kernel.{key}: expected a nonempty array")
            continue
        for i, v in enumerate(vals):
            _require_number(v, f"kernel.{key}[{i}]", errors, positive=True)
    if not isinstance(ker.get("rs"), list):
        errors.append("kernel.rs: expected an array")
    _require_number(ker.get("tolerance"), "kernel.tolerance", errors,
                    positive=True)

    syn = cfg["synth"]
    _require_number(syn.get("alpha"), "synth.alpha", errors, positive=True)
    _require_number(syn.get("t"), "synth.t", errors, positive=True)
    _require_number(syn.get("replications"), "synth.replications", errors,
                    positive=True, integer=True)
    _require_number(syn.get("x_points"), "synth.x_points", errors,
                    positive=True, integer=True)
    if syn.get("x_step") is not None:
        _require_number(syn["x_step"], "synth.x_step", errors, positive=True)
    if syn.get("derivative_order") is not None:
        _require_number(syn["derivative_order"], "synth.derivative_order",
                        errors, nonnegative=True, integer=True)
    if syn.get("grid") is not None:
        grid = syn["grid"]
        if not isinstance(grid, dict):
            errors.append("synth.grid: expected an object")
        else:
            _check_unknown(grid, _GRID_KEYS, "synth.grid", errors)
            if grid.get("cutoff") is not None:
                _require_number(grid["cutoff"], "synth.grid.cutoff", errors,
                                positive=True)
            if grid.get("modes") is not None:
                _require_number(grid["modes"], "synth.grid.modes", errors,
                                positive=True, integer=True)

    sp = cfg["spde"]
    _require_number(sp.get("circumference"), "spde.circumference", errors,
                    positive=True)
    modes = _require_number(sp.get("modes"), "spde.modes", errors,
                            positive=True, integer=True)
    if modes is not None and modes % 2 == 0:
        errors.append("spde.modes: mode count must be odd")
    _require_number(sp.get("alpha"), "spde.alpha", errors, nonnegative=True)
    _require_number(sp.get("dt"), "spde.dt", errors, positive=True)
    _require_number(sp.get("t_end"), "spde.t_end", errors, positive=True)
    _require_number(sp.get("paths"), "spde.paths", errors, positive=True,
                    integer=True)
    if not isinstance(sp.get("probes"), list) or not sp["probes"]:
        errors.append("spde.probes: expected a nonempty array")

    lt = cfg["localtime"]
    if lt.get("experiment") not in ("resolvent", "corollary"):
        errors.append("localtime.experiment: expected 'resolvent' or "
                      "'corollary'")
    beta = _require_number(lt.get("beta"), "localtime.beta", errors)
    if beta is not None and not 1.0 < beta <= 2.0:
        errors.append("localtime.beta: beta must lie in (1,2]")
    _require_number(lt.get("c"), "localtime.c", errors, positive=True)
    _require_number(lt.get("alpha"), "localtime.alpha", errors,
                    positive=True)
    _require_number(lt.get("a"), "localtime.a", errors)
    _require_number(lt.get("b"), "localtime.b", errors)
    _require_number(lt.get("t"), "localtime.t", errors, positive=True)
    _require_number(lt.get("dt"), "localtime.dt", errors, positive=True)
    if lt.get("eps") is not None:
        _require_number(lt["eps"], "localtime.eps", errors, positive=True)
    _require_number(lt.get("paths"), "localtime.paths", errors,
                    positive=True, integer=True)

    ver = cfg["verify"]
    suites = ver.get("suites")
    if not isinstance(suites, list) or not suites:
        errors.append("verify.suites: expected a nonempty array")
    else:
        for s in suites:
            if s not in SUITES:
                errors.append(f"verify.suites: unknown suite {s!r}")
    _require_number(ver.get("paths_scale"), "verify.paths_scale", errors,
                    positive=True)
    _require_number(ver.get("tolerance_scale"), "verify.tolerance_scale",
                    errors, positive=True)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON syntax error at line {exc.lineno}, "
                           f"column {exc.colno}: {exc.msg}"]) from exc
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    _check_unknown(raw, _TOP_KEYS, "config", errors)
    if "model" not in raw:
        errors.append("model: required section is missing")
        model = None
        model_spec = {}
    else:
        model_spec = raw["model"]
        model = _build_model(model_spec, errors)
    seed = raw.get("seed", _DEFAULTS["seed"])
    seed_num = _require_number(seed, "seed", errors, integer=True)
    out_dir = raw.get("out_dir", _DEFAULTS["out_dir"])
    if not isinstance(out_dir, str):
        errors.append(f"out_dir: expected a string, got {out_dir!r}")
        out_dir = _DEFAULTS["out_dir"]
    sections = {name: _merge_section(name, raw.get(name), errors)
                for name in _SECTION_KEYS}
    _validate_sections(sections, errors)
    if errors or model is None:
        raise ConfigError(errors or ["model: could not be constructed"])
    return ExperimentConfig(model=model, model_spec=model_spec,
                            seed=int(seed_num), out_dir=out_dir, **sections)

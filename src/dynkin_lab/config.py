"""Strict JSON experiment configuration.

Each key is written once, in the tables below: its default, its kind and
its bound.  Unknown keys are rejected with their full path, every number
must be finite and within its bound before any computation, and all
validation problems are collected into one error rather than stopping at
the first.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .levy import LevyMeasure, LevyModel
from .verify import SUITES


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  "
                         + "\n  ".join(self.errors))


_REQUIRED = object()   # default of a key that must be given; absent reads null
_BAD = object()       # what a check returns for a value it rejected


def _fail(errors, message):
    errors.append(message)
    return _BAD


# A kind is a check(val, path, errors) that returns the value to keep, or
# _BAD after appending a message that names the path.
def _rule(holds, message: str):
    """The kind of a value for which ``holds`` is true; the message gets
    the value.  Bounds on numbers are rules too."""
    def check(val, path, errors):
        if not holds(val):
            return _fail(errors, f"{path}: " + message.format(val=val))
        return val
    return check


_GT0 = _rule(lambda v: v > 0, "must be > 0, got {val!r}")
_GE0 = _rule(lambda v: v >= 0, "must be >= 0, got {val!r}")


def _number(bound=None, integer=False, inf_ok=False):
    """A finite number (an integer if asked) within its bound, if any.

    "Finite" also excludes integers too large for a float.  With
    ``inf_ok``, Infinity is allowed as well (an unbounded support end).
    """
    def check(val, path, errors):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            return _fail(errors, f"{path}: expected a number, got {val!r}")
        if not (abs(val) <= sys.float_info.max or inf_ok and val == math.inf):
            return _fail(errors, f"{path}: expected a finite number, "
                         f"got {val!r}")
        if integer and int(val) != val:
            return _fail(errors, f"{path}: expected an integer, got {val!r}")
        return val if bound is None else bound(val, path, errors)
    return check


def _array(item, nonempty=False, indexed=True):
    """An array whose every element passes ``item``.  A bad element is
    named by its index, or by the array's path when ``indexed`` is off."""
    def check(val, path, errors):
        if not isinstance(val, list) or nonempty and not val:
            what = "a nonempty array" if nonempty else "an array"
            return _fail(errors, f"{path}: expected {what}")
        n = len(errors)
        for i, v in enumerate(val):
            item(v, f"{path}[{i}]" if indexed else path, errors)
        return val if len(errors) == n else _BAD
    return check


def _as_given(val, path, errors):
    """A value that ``build`` checks (the columns of a density table)."""
    return val


def _object(table, section=False):
    """An object checked against its own table.  A section is filled in
    from the table's defaults, null standing for {}; a sub-object such as
    ``synth.grid`` is kept as it was given."""
    def check(val, path, errors):
        if val is None and section:
            val = {}
        if not isinstance(val, dict):
            return _fail(errors, f"{path}: expected an object")
        filled = _walk(table, val, path, errors)
        return filled if section else val
    return check


def _variant(tag: str, tables: dict, build, what="an object"):
    """An object whose ``tag`` key picks its table, turned by
    ``build(tag value, values)`` into what it describes."""
    def check(val, path, errors):
        if not isinstance(val, dict):
            return _fail(errors, f"{path}: expected {what}")
        name = val.get(tag)
        if not isinstance(name, str) or name not in tables:
            return _fail(errors, f"{path}.{tag}: expected one of "
                         f"{sorted(tables)}, got {name!r}")
        vals = _walk(tables[name], val, path, errors, extra=tag)
        if len(vals) < len(tables[name]):
            return _BAD
        try:
            return build(name, vals)
        except ValueError as exc:
            return _fail(errors, f"{path}: {exc}")
    return check


def _walk(table, obj, path, errors, extra=None) -> dict:
    """Check ``obj`` against ``table``: the keys that pass, with their
    defaults filled in.  A key whose default is None may be null; the key
    ``extra`` is known but checked by the caller."""
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in table and key != extra:
            errors.append(f"{prefix or 'config.'}{key}: unknown key")
    out = {}
    for key, (default, kind) in table.items():
        val = obj.get(key, None if default is _REQUIRED else default)
        if val is None and default is None:
            out[key] = None
        elif (val := kind(val, prefix + key, errors)) is not _BAD:
            out[key] = val
    return out


def _measure(family: str, v: dict) -> LevyMeasure:
    if family == "power_law":
        z_max = math.inf if v["z_max"] is None else float(v["z_max"])
        return LevyMeasure.power_law(float(v["coeff"]), float(v["beta"]),
                                     float(v["z_min"]), z_max)
    if not isinstance(v["z"], list) or not isinstance(v["rho"], list):
        raise ValueError("table family needs z and rho arrays")
    return LevyMeasure.from_table(np.array(v["z"], dtype=float),
                                  np.array(v["rho"], dtype=float))


def _model(kind: str, v: dict) -> LevyModel:
    if kind == "brownian":
        return LevyModel.brownian(float(v["kappa"]))
    if kind == "stable":
        return LevyModel.stable(float(v["beta"]), float(v["c"]))
    return LevyModel.khintchine(float(v["sigma2"]), v["nu"])


_POSITIVE = _number(_GT0)
_COUNT = _number(_GT0, integer=True)

_NU = _variant("family", {
    "power_law": {
        "coeff": (_REQUIRED, _POSITIVE),
        "beta": (_REQUIRED, _number(_rule(lambda b: 0 < b < 2,
                                          "beta must lie in (0,2)"))),
        "z_min": (0.0, _number(_GE0)),
        # null or Infinity: the density reaches out to infinity
        "z_max": (None, _number(_GT0, inf_ok=True)),
    },
    "table": {"z": (_REQUIRED, _as_given), "rho": (_REQUIRED, _as_given)},
}, _measure, what="an object describing the jump density")

_MODEL = _variant("kind", {
    "brownian": {"kappa": (1.0, _POSITIVE)},
    "stable": {
        "beta": (_REQUIRED, _number(_rule(lambda b: 0 < b <= 2,
                                          "beta must lie in (0,2]"))),
        "c": (1.0, _POSITIVE),
    },
    "khintchine": {"sigma2": (0.0, _number(_GE0)),
                   "nu": (_REQUIRED, _NU)},
}, _model)

_SECTIONS = {
    "check": {
        "alpha": (1.0, _POSITIVE),
        "xi_min": (2.0, _POSITIVE),
        "xi_max": (2.0**24, _POSITIVE),
        "eps_min": (1e-6, _POSITIVE),
        "eps_max": (1.0, _POSITIVE),
        "points_per_decade": (8, _COUNT),
    },
    "kernel": {
        "alphas": ([0.5, 1.0, 2.0], _array(_POSITIVE, nonempty=True)),
        "ts": ([0.5, 1.0], _array(_POSITIVE, nonempty=True)),
        "rs": ([0.0, 0.5, 1.0], _array(_number())),
        "tolerance": (1e-6, _POSITIVE),
    },
    "synth": {
        "alpha": (2.0, _POSITIVE),
        "t": (1.0, _POSITIVE),
        "grid": (None, _object({"cutoff": (None, _POSITIVE),
                                "modes": (None, _COUNT)})),
        "x_points": (256, _COUNT),
        "x_step": (None, _POSITIVE),
        "replications": (2000, _COUNT),
        "derivative_order": (None, _number(_GE0, integer=True)),
        "lags": (None, _array(_number())),
    },
    "spde": {
        "circumference": (64.0, _POSITIVE),
        "modes": (513, _COUNT),
        "alpha": (2.0, _number(_GE0)),
        "dt": (0.1, _POSITIVE),   # read by nothing: one step per gap
        "t_end": (6.0, _POSITIVE),
        "paths": (2000, _COUNT),
        "probes": ([0.0], _array(_number(), nonempty=True)),
    },
    "localtime": {
        "experiment": ("resolvent",
                       _rule(lambda v: v in ("resolvent", "corollary"),
                             "expected 'resolvent' or 'corollary'")),
        "beta": (2.0, _number(_rule(lambda b: 1 < b <= 2,
                                    "beta must lie in (1,2]"))),
        "c": (1.0, _POSITIVE),
        "alpha": (2.0, _POSITIVE),
        "a": (0.0, _number()),
        "b": (1.0, _number()),
        "t": (math.log(2.0), _POSITIVE),
        "dt": (1e-4, _POSITIVE),
        "eps": (None, _POSITIVE),
        "paths": (20000, _COUNT),
    },
    "verify": {
        "suites": (list(SUITES),
                   _array(_rule(lambda v: v in tuple(SUITES),
                                "unknown suite {val!r}"),
                          nonempty=True, indexed=False)),
        "paths_scale": (1.0, _POSITIVE),
        "tolerance_scale": (1.0, _POSITIVE),
    },
}

# the top level; a seed is an integer in rng's 64-bit key space, so that no
# two seeds name the same streams
_CONFIG = {
    "seed": (12345, _number(_rule(lambda s: 0 <= s < 2**64,
                                  "seed must lie in [0,2**64)"),
                            integer=True)),
    "out_dir": ("out", _rule(lambda v: isinstance(v, str),
                             "expected a string, got {val!r}")),
    **{name: ({}, _object(table, section=True))
       for name, table in _SECTIONS.items()},
}


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


def parse_config(text: str, overrides: dict | None = None
                 ) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment configuration.

    ``overrides`` maps dotted keys such as ``"spde.paths"`` to values that
    replace the configured ones before anything is checked (the CLI flags).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON syntax error at line {exc.lineno}, "
                           f"column {exc.colno}: {exc.msg}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    for dotted, val in (overrides or {}).items():
        section, _, key = dotted.rpartition(".")
        if section and raw.get(section) is None:
            raw[section] = {}
        target = raw[section] if section else raw
        if isinstance(target, dict):
            target[key] = val
    errors: list[str] = []
    model_spec = raw.get("model", {})
    if "model" not in raw:
        errors.append("model: required section is missing")
    else:
        model = _MODEL(model_spec, "model", errors)
    cfg = _walk(_CONFIG, raw, "", errors, extra="model")
    # the rules across keys, on the keys that passed their own
    chk = cfg.get("check", {})
    for lo, hi in (("xi_min", "xi_max"), ("eps_min", "eps_max")):
        if lo in chk and hi in chk and chk[lo] >= chk[hi]:
            errors.append(f"check.{lo}: must be below check.{hi}, "
                          f"got {float(chk[lo])!r} >= {float(chk[hi])!r}")
    if cfg.get("spde", {}).get("modes", 1) % 2 == 0:
        errors.append("spde.modes: mode count must be odd")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(model=model, model_spec=model_spec,
                            seed=int(cfg.pop("seed")), **cfg)

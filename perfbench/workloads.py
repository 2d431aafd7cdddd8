"""The four workloads: fixed inputs, the operations of one round, checks.

Every workload runs on a fixed set of parameters written out below (the
same on every run).  The run seed reaches the program as the root seed of
its random streams (synthesis, Monte Carlo) and as the order in which a
round visits its cases (spectral workloads); neither changes how much work
a round does.  A round is a fixed list of operations, each one call into
the package: ``dynkin_lab.cli.main`` where a subcommand covers the work,
so that config parsing and CSV writing are timed with it, and the public
function otherwise.  Checks run outside the timed rounds and use only
``oracle`` and the outputs themselves.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dynkin_lab import LevyModel, cli, fields, localtime
from dynkin_lab.config import parse_config

import oracle


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    out_dir: str | None = None   # CLI operations write their CSVs here


class Checks:
    """Counts checks made and keeps the message of each that failed."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def true(self, ok: bool, message: str):
        self.count += 1
        if not ok:
            self.failures.append(message)

    def close(self, what: str, got: float, want: float, rel: float,
              abs_tol: float = 0.0):
        tol = max(rel * abs(want), abs_tol)
        self.true(abs(got - want) <= tol,
                  f"{what}: got {got!r}, want {want!r} (tolerance {tol:.3g})")


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    """Comment lines and rows of a package CSV (numbers parsed as float)."""
    comments, rows, header = [], [], None
    with open(path) as handle:
        for line in handle.read().splitlines():
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                cells = []
                for cell in line.split(","):
                    try:
                        cells.append(float(cell))
                    except ValueError:
                        cells.append(cell)
                rows.append(dict(zip(header, cells)))
    return comments, rows


class Workload:
    """Base: subclasses fill ``ops`` in ``__init__`` and define ``check``."""

    name = ""
    nominal_round_s = 1.0   # one round's wall time on the reference host
    min_rounds = 2

    def __init__(self, out_dir: str, seed: int, smoke: bool):
        self.out_dir = out_dir
        self.seed = seed
        self.smoke = smoke
        self.ops: list[Op] = []
        os.makedirs(out_dir, exist_ok=True)

    def cli_op(self, name: str, command: str, model: dict,
               sections: dict, seed: int) -> Op:
        """Write the op's config and validate it once (building its model);
        the timed call is ``dynkin-lab <command> --config ... --seed ...``."""
        out = os.path.join(self.out_dir, name)
        path = os.path.join(self.out_dir, name + ".json")
        text = json.dumps({"model": model, "seed": seed, "out_dir": out,
                           **sections}, indent=1)
        with open(path, "w") as handle:
            handle.write(text)
        parse_config(text)
        argv = [command, "--config", path, "--seed", str(seed)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        return Op(name, run, out)

    def op(self, name: str) -> Op:
        return next(op for op in self.ops if op.name == name)

    def shuffled(self, items: list) -> list:
        order = list(items)
        random.Random(self.seed).shuffle(order)
        return order

    def check(self, results: dict, checks: Checks):
        raise NotImplementedError


# ---------------------------------------------------------------- spectral


def _stable_spec(beta: float, c: float) -> dict:
    return {"kind": "stable", "beta": beta, "c": c}


def _check_kernel_tables(out: str, what: str, u0, pbar0, checks: Checks,
                         rel: float, extra_row=None):
    """kernels.csv at r = 0 against u0(alpha), pbar0(t); variances.csv:
    varV + varS = varEta within the reported tail bound, varEta = u0."""
    _, rows = read_csv(os.path.join(out, "kernels.csv"))
    checks.true(len(rows) > 0, f"{what}: kernels.csv has no rows")
    for row in rows:
        a, t, r = row["alpha"], row["t"], row["r"]
        if r == 0.0:
            checks.close(f"{what} u_alpha(alpha={a}, 0)", row["u_alpha"],
                         u0(a), rel)
            checks.close(f"{what} pbar(t={t}, 0)", row["pbar"], pbar0(t),
                         rel)
        elif extra_row is not None:
            extra_row(row, rows)
    _, rows = read_csv(os.path.join(out, "variances.csv"))
    checks.true(len(rows) > 0, f"{what}: variances.csv has no rows")
    for row in rows:
        a, t = row["alpha"], row["t"]
        gap = row["varV"] + row["varS"] - row["varEta"]
        checks.true(abs(gap) <= 3.0 * row["tail_bound"] + 1e-9 * row["varEta"],
                    f"{what} alpha={a} t={t}: varV + varS - varEta = {gap!r} "
                    f"exceeds 3 x tail bound {row['tail_bound']!r}")
        checks.close(f"{what} varEta(alpha={a})", row["varEta"], u0(a), rel)
        checks.true(row["varU"] > 0 and row["varV"] > 0 and row["varS"] > 0,
                    f"{what} alpha={a} t={t}: nonpositive variance")


_EXISTENCE = re.compile(r"existence integral \(alpha=([^)]*)\): (\S+) "
                        r"\(tail bound (\S+)\)")


def _check_condition_report(out: str, what: str, beta: float, u0,
                            checks: Checks, rel_existence: float):
    """check.csv / check_summary.txt: existence integral = 2 pi u_alpha(0),
    G(eps)/K(eps) = (2 - beta)/beta for the stable jump measure."""
    with open(os.path.join(out, "check_summary.txt")) as handle:
        summary = handle.read()
    found = _EXISTENCE.search(summary)
    checks.true(found is not None, f"{what}: no existence integral line")
    if found:
        alpha, value, tail = (float(g) for g in found.groups())
        checks.close(f"{what} existence integral", value,
                     2.0 * math.pi * u0(alpha), rel_existence, 3.0 * tail)
    checks.true("dalang: satisfied-numerically" in summary,
                f"{what}: existence verdict is not satisfied")
    _, rows = read_csv(os.path.join(out, "check.csv"))
    kg = [(row["abscissa"], row["value"]) for row in rows
          if row["table"] == "kg"]
    checks.true(len(kg) >= 8, f"{what}: kg table has {len(kg)} rows")
    want = (2.0 - beta) / beta if beta < 2.0 else 0.0
    for eps, value in kg:
        checks.close(f"{what} G/K at eps={eps}", value, want, 1e-7)


class SpectralStable(Workload):
    """check and kernel subcommands on closed-form stable models.

    Runs in --smoke and by hand; BENCHMARK.json leaves it out (see
    README.md, Steadiness)."""

    name = "spectral-stable"
    nominal_round_s = 2.6
    # (beta, c); beta >= 1.86 is out (power_law rejects it, see CHANGES.md)
    CASES = ((1.3, 0.7), (1.55, 1.0), (1.8, 1.6), (2.0, 0.8))
    KERNEL = {"alphas": [0.5, 2.0], "ts": [0.5, 1.0], "rs": [0.0, 0.5, 1.5],
              "tolerance": 1e-6}

    def __init__(self, out_dir, seed, smoke):
        super().__init__(out_dir, seed, smoke)
        self.cases = self.shuffled(self.CASES)
        for beta, c in self.cases:
            spec = _stable_spec(beta, c)
            self.ops.append(self.cli_op(f"check-{beta}", "check", spec, {},
                                        seed))
            self.ops.append(self.cli_op(f"kernel-{beta}", "kernel", spec,
                                        {"kernel": self.KERNEL}, seed))

    def check(self, results, checks):
        for beta, c in self.cases:
            def u0(a, beta=beta, c=c):
                return oracle.u0_stable(a, beta, c)

            def pbar0(t, beta=beta, c=c):
                return oracle.pbar0_stable(t, beta, c)

            def off_origin(row, rows, beta=beta, c=c):
                a, t, r = row["alpha"], row["t"], row["r"]
                what = f"stable({beta}, {c})"
                if beta == 2.0:
                    checks.close(f"{what} u_alpha(alpha={a}, r={r})",
                                 row["u_alpha"], oracle.u_gauss(a, c, r),
                                 1e-7, 1e-12)
                else:
                    u_at_0 = next(x["u_alpha"] for x in rows
                                  if x["alpha"] == a and x["r"] == 0.0)
                    checks.true(0.0 < row["u_alpha"] < u_at_0,
                                f"{what} u_alpha(alpha={a}, r={r}) = "
                                f"{row['u_alpha']!r} not in (0, u_alpha(0))")
                checks.close(f"{what} pbar(t={t}, r={r})", row["pbar"],
                             oracle.pbar_stable(t, beta, c, r), 1e-6, 1e-10)

            if f"kernel-{beta}" in results:
                _check_kernel_tables(
                    self.op(f"kernel-{beta}").out_dir,
                    f"stable({beta}, {c})", u0, pbar0, checks, 1e-8,
                    off_origin)
            if f"check-{beta}" in results:
                _check_condition_report(
                    self.op(f"check-{beta}").out_dir,
                    f"stable({beta}, {c})", beta, u0, checks, 1e-8)


class SpectralKhintchine(Workload):
    """check and kernel subcommands at r = 0 on khintchine models that
    every CLI run builds afresh, so each round evaluates its exponents
    cold."""

    name = "spectral-khintchine"
    nominal_round_s = 14.0
    # stable-shaped measure: power_law(stable_jump_coefficient(beta, c),
    # beta) has RePsi = c |xi|^beta exactly
    BETA, C = 1.2, 1.0
    # sigma2 > 0: RePsi = sigma2 xi^2 / 2 + power-law jumps
    SIGMA2, COEFF, NU_BETA = 0.5, 1.0, 1.0
    KERNEL = {"alphas": [1.0], "ts": [1.0], "rs": [0.0], "tolerance": 1e-6}
    # 20-point xi grid, 8-point eps grid
    CHECK = {"xi_min": 2.0, "xi_max": 2.0**24, "eps_min": 0.01,
             "eps_max": 1.0, "points_per_decade": 3}

    def __init__(self, out_dir, seed, smoke):
        super().__init__(out_dir, seed, smoke)
        coeff = (self.C * math.gamma(1.0 + self.BETA)
                 * math.sin(math.pi * self.BETA / 2.0) / math.pi)
        shaped = {"kind": "khintchine", "sigma2": 0.0,
                  "nu": {"family": "power_law", "coeff": coeff,
                         "beta": self.BETA, "z_min": 0.0, "z_max": None}}
        gauss = {"kind": "khintchine", "sigma2": self.SIGMA2,
                 "nu": {"family": "power_law", "coeff": self.COEFF,
                        "beta": self.NU_BETA, "z_min": 0.0, "z_max": None}}
        ops = [self.cli_op("check-shaped", "check", shaped,
                           {"check": self.CHECK}, seed),
               self.cli_op("kernel-shaped", "kernel", shaped,
                           {"kernel": self.KERNEL}, seed),
               self.cli_op("kernel-gauss", "kernel", gauss,
                           {"kernel": self.KERNEL}, seed)]
        self.ops = self.shuffled(ops)

    def check(self, results, checks):
        beta, c = self.BETA, self.C
        what = f"khintchine stable-shaped({beta}, {c})"

        def u0(a):
            return oracle.u0_stable(a, beta, c)

        if "kernel-shaped" in results:
            _check_kernel_tables(
                self.op("kernel-shaped").out_dir, what, u0,
                lambda t: oracle.pbar0_stable(t, beta, c), checks, 1e-6)
        if "check-shaped" in results:
            # the existence integral runs on condition_report's log-log
            # interpolant of RePsi, documented as accurate to ~1e-4
            _check_condition_report(self.op("check-shaped").out_dir,
                                    what, beta, u0, checks, 1e-4)
        if "kernel-gauss" in results:
            s2, k, b = self.SIGMA2, self.COEFF, self.NU_BETA
            _check_kernel_tables(
                self.op("kernel-gauss").out_dir,
                f"khintchine(sigma2={s2}, power_law({k}, {b}))",
                lambda a: oracle.u0_gauss_plus_power_law(a, s2, k, b),
                lambda t: oracle.pbar0_gauss_plus_power_law(t, s2, k, b),
                checks, 1e-6)


# --------------------------------------------------------------- synthesis


class Synthesis(Workload):
    """synth subcommand plus gridded replicates and an ensemble probe."""

    name = "synthesis"
    nominal_round_s = 5.0
    BETA, C, ALPHA, T = 1.5, 1.0, 2.0, 1.0
    CUTOFF, MODES, X_POINTS = 512.0, 1 << 14, 256
    LAG_STEPS = (1, 2, 4, 8, 16, 32, 64)
    PROBE_INDEX = (0, 9, 64, 255)

    def __init__(self, out_dir, seed, smoke):
        super().__init__(out_dir, seed, smoke)
        self.replications = 200 if smoke else 2000
        self.extra_replicates = 1 if smoke else 3
        self.x_step = (2.0 * math.pi / self.CUTOFF) * 0.25
        self.lags = [self.x_step * m for m in self.LAG_STEPS]
        spec = _stable_spec(self.BETA, self.C)
        synth = {"alpha": self.ALPHA, "t": self.T,
                 "grid": {"cutoff": self.CUTOFF, "modes": self.MODES},
                 "x_points": self.X_POINTS, "x_step": self.x_step,
                 "replications": self.replications, "lags": self.lags}
        self.ops.append(self.cli_op("synth", "synth", spec, {"synth": synth},
                                    seed))
        model = LevyModel.stable(self.BETA, self.C)
        grid = fields.SpectralGrid(self.CUTOFF, self.MODES)
        self.x = np.arange(self.X_POINTS) * self.x_step
        probes = self.x[list(self.PROBE_INDEX)]
        for rep in range(1, 1 + self.extra_replicates):
            self.ops.append(Op(f"sample-{rep}", lambda rep=rep:
                               fields.sample_joint(model, self.ALPHA, self.T,
                                                   grid, self.x, seed,
                                                   replicate=rep)))
        n_ens = 1 + self.extra_replicates
        self.ops.append(Op("ensemble-probe", lambda: fields.ensemble_values(
            model, "eta", self.ALPHA, self.T, grid, probes, seed, n_ens)))

    def check(self, results, checks):
        out = self.ops[0].out_dir
        eta_by_rep = {}
        if "synth" in results:
            parts = {}
            for kind in ("V", "S", "eta"):
                _, rows = read_csv(os.path.join(out, f"field_{kind}.csv"))
                parts[kind] = np.array([row["value"] for row in rows])
                xs = np.array([row["x"] for row in rows])
            checks.true(np.array_equal(xs, self.x), "synth: x grid differs")
            checks.true(np.array_equal(parts["eta"], parts["V"] + parts["S"]),
                        "synth replicate 0: eta != V + S exactly")
            eta_by_rep[0] = parts["eta"]
            self._check_covariances(out, checks)
        for rep in range(1, 1 + self.extra_replicates):
            res = results.get(f"sample-{rep}")
            if res is None:
                continue
            v, s, eta, _ = res
            checks.true(np.array_equal(eta.values, v.values + s.values),
                        f"sample_joint replicate {rep}: eta != V + S exactly")
            eta_by_rep[rep] = eta.values
        ens = results.get("ensemble-probe")
        if ens is not None:
            idx = list(self.PROBE_INDEX)
            for rep, values in eta_by_rep.items():
                scale = float(np.max(np.abs(values)))
                diff = float(np.max(np.abs(ens[rep] - values[idx])))
                checks.true(diff <= 1e-10 * scale,
                            f"replicate {rep}: ensemble_values and "
                            f"sample_joint differ by {diff:.3e} "
                            f"(scale {scale:.3e})")

    def _check_covariances(self, out, checks):
        """Empirical covariance at each lag within 4 se of the covariance of
        the synthesised sum, sum_k 2 f(xi_k) dxi cos(xi_k r), with
        f = 1 / (2 pi (alpha + 2 c xi^beta))."""
        _, rows = read_csv(os.path.join(out, "ensemble_stats.csv"))
        checks.true(len(rows) == len(self.lags),
                    f"synth: {len(rows)} covariance rows")
        dxi = self.CUTOFF / self.MODES
        xi = (np.arange(self.MODES) + 0.5) * dxi
        f = 1.0 / (2.0 * math.pi * (self.ALPHA
                                    + 2.0 * self.C * xi ** self.BETA))
        for row in rows:
            want = float(np.sum(2.0 * f * dxi * np.cos(xi * row["lag"])))
            err = abs(row["empirical_cov"] - want)
            checks.true(err <= 4.0 * row["stderr"],
                        f"synth covariance at lag {row['lag']!r}: "
                        f"{row['empirical_cov']!r} vs {want!r} is "
                        f"{err / row['stderr']:.2f} se away")


# -------------------------------------------------------------- montecarlo


class MonteCarlo(Workload):
    """localtime and spde subcommands plus the discounted split check."""

    name = "montecarlo"
    nominal_round_s = 2.3
    LN2 = math.log(2.0)
    # (name, beta, c, alpha, a, b, dt, paths); resolvent: x = a, y = b
    RESOLVENT = (("resolvent-1.5", 1.5, 0.5, 1.0, 0.0, 0.0, 1e-3, 3000),
                 ("resolvent-2", 2.0, 1.0, 2.0, 0.0, 0.5, 1e-3, 3000))
    # beta = 2 keeps the box estimator's bias well inside 4 se: at dt 1e-3
    # the beta = 1.5 conditional means sit 2.5 se (3000 paths) below exact
    COROLLARY = ("corollary", 2.0, 1.0, 2.0, 0.0, 2.0, 1.25e-4, 1300,
                 math.log(2.0) / 2.0)
    SPLIT = (1.5, 0.5, 1.0, 0.0, 1.0, 1e-3, 3000, math.log(2.0))
    TORUS = {"circumference": 64.0, "modes": 513, "alpha": 2.0, "dt": 0.1,
             "t_end": 6.0, "paths": 200, "probes": [0.0]}
    TORUS_MODEL = (1.5, 1.0)

    def __init__(self, out_dir, seed, smoke):
        super().__init__(out_dir, seed, smoke)
        scale = 3 if smoke else 1
        model = _stable_spec(1.5, 1.0)
        for k, (name, beta, c, alpha, a, b, dt, paths) in enumerate(
                self.RESOLVENT):
            sec = {"experiment": "resolvent", "beta": beta, "c": c,
                   "alpha": alpha, "a": a, "b": b, "dt": dt,
                   "paths": paths // scale}
            self.ops.append(self.cli_op(name, "localtime", model,
                                        {"localtime": sec}, seed + k))
        name, beta, c, alpha, a, b, dt, paths, t = self.COROLLARY
        sec = {"experiment": "corollary", "beta": beta, "c": c,
               "alpha": alpha, "a": a, "b": b, "t": t, "dt": dt,
               "paths": paths}
        self.ops.append(self.cli_op(name, "localtime", model,
                                    {"localtime": sec}, seed + 2))
        beta, c, alpha, a, b, dt, paths, t = self.SPLIT
        cfg = localtime.PathConfig(beta, c, dt, seed=seed + 3)
        self.ops.append(Op("discounted-split", lambda: (
            localtime.discounted_split_check(cfg, alpha, a, b, t,
                                             paths // scale))))
        torus_sec = dict(self.TORUS, paths=100 if smoke else 200)
        self.ops.append(self.cli_op(
            "spde", "spde", _stable_spec(*self.TORUS_MODEL),
            {"spde": torus_sec}, seed + 4))

    def _row(self, name):
        _, rows = read_csv(os.path.join(self.op(name).out_dir,
                                        "localtime.csv"))
        return rows[0]

    def check(self, results, checks):
        for name, beta, c, alpha, a, b, dt, paths in self.RESOLVENT:
            if name not in results:
                continue
            row = self._row(name)
            # closed forms: any lag for beta = 2, the diagonal otherwise
            u = (oracle.u_gauss(alpha, c, a - b) if beta == 2.0
                 else oracle.u0_stable(alpha, beta, c))
            exact = u / alpha
            checks.close(f"{name} exact column", row["rhs"], exact, 1e-7)
            err = abs(row["lhs"] - exact)
            checks.true(err <= 3.0 * row["lhs_se"] + 0.05 * exact,
                        f"{name}: estimate {row['lhs']!r} vs u/alpha "
                        f"{exact!r} exceeds 3 se + 5%")
        name, beta, c, alpha, a, b, dt, paths, t = self.COROLLARY
        if name in results:
            row = self._row(name)
            lhs, rhs = oracle.corollary_means(beta, c, alpha, abs(a - b), t)
            checks.true(row["verdict"] == "True" and row["lhs"] > row["rhs"],
                        f"corollary: verdict {row['verdict']} with lhs "
                        f"{row['lhs']!r}, rhs {row['rhs']!r}")
            for side, want in (("lhs", lhs), ("rhs", rhs)):
                se = row[side + "_se"]
                checks.true(abs(row[side] - want) <= 4.0 * se,
                            f"corollary {side} {row[side]!r} vs exact "
                            f"{want!r}: {abs(row[side] - want) / se:.2f} se")
        split = results.get("discounted-split")
        if split is not None:
            checks.true(split.verdict and split.margin > 0.0,
                        f"discounted split: margin {split.margin!r} "
                        f"(se {split.margin_se!r})")
        if "spde" in results:
            _, rows = read_csv(os.path.join(self.op("spde").out_dir,
                                            "moments.csv"))
            checks.true(len(rows) == 2, f"spde: {len(rows)} moment rows")
            beta, c = self.TORUS_MODEL
            for row in rows:
                want = oracle.torus_point_variance(
                    self.TORUS["circumference"], self.TORUS["modes"],
                    self.TORUS["alpha"], beta, c, row["t"])
                checks.close(f"spde exact_var at t={row['t']}",
                             row["exact_var"], want, 1e-9)
                # standard error of a Gaussian variance estimate, taken at
                # the exact variance so a low sample cannot shrink its gate
                se = want * math.sqrt(2.0 / row["paths"])
                checks.true(abs(row["var"] - want) <= 4.0 * se,
                            f"spde var at t={row['t']}: {row['var']!r} vs "
                            f"{want!r} ({abs(row['var'] - want) / se:.2f} se)")


WORKLOADS = {cls.name: cls for cls in (SpectralStable, SpectralKhintchine,
                                       Synthesis, MonteCarlo)}

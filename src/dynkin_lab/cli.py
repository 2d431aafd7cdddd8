"""Command-line front end: check | kernel | synth | spde | localtime | verify.

One JSON configuration drives every command; flags override the config
(flags win) and are validated with it.  Exit status contract: 0 all pass,
1 property failure, 2 usage/config error, 3 numerical non-convergence.  All
output files are written atomically (temp + rename) and carry a provenance
header comment sufficient to reproduce them bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, fields, localtime, torus, verify
from .config import ConfigError, ExperimentConfig, parse_config
from .kernels import KernelQuery, u_alpha, pbar_density, variance_profile
from .levy import condition_report
from .quadrature import NonConvergenceError

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dynkin-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _provenance(cfg: ExperimentConfig, command: str, extra: str = "") -> str:
    model = json.dumps(cfg.model_spec, sort_keys=True)
    base = (f"dynkin-lab v{__version__} command={command} seed={cfg.seed} "
            f"model={model}")
    return base + (" " + extra if extra else "")


def _write_summary(cfg, command, lines):
    text = "\n".join(lines) + "\n"
    _atomic_write(os.path.join(cfg.out_dir, f"{command}_summary.txt"), text)
    sys.stdout.write(text)


def run_check(cfg: ExperimentConfig) -> int:
    sec = cfg.check
    ppd = int(sec["points_per_decade"])
    xi_grid = np.geomspace(sec["xi_min"], sec["xi_max"], max(
        8, int(ppd * math.log10(sec["xi_max"] / sec["xi_min"]))))
    eps_grid = np.geomspace(sec["eps_min"], sec["eps_max"], max(
        8, int(ppd * math.log10(sec["eps_max"] / sec["eps_min"]))))
    report = condition_report(cfg.model, sec["alpha"], xi_grid, eps_grid)
    prov = _provenance(cfg, "check", f"alpha={sec['alpha']}")
    rows = [f"# {prov}", "table,abscissa,value"]
    for name, table in (("hawkes", report.hawkes_trend),
                        ("quasi_increasing", report.quasi_increasing_ratio),
                        ("kg", report.kg_ratio)):
        for a, v in table:
            rows.append(f"{name},{a!r},{v!r}")
    _atomic_write(os.path.join(cfg.out_dir, "check.csv"),
                  "\n".join(rows) + "\n")
    lines = [f"existence integral (alpha={sec['alpha']}): "
             f"{report.dalang_integral!r} "
             f"(tail bound {report.dalang_tail_bound!r})"]
    lines += [f"{k}: {v}" for k, v in sorted(report.verdicts.items())]
    _write_summary(cfg, "check", lines)
    return EXIT_OK


def run_kernel(cfg: ExperimentConfig) -> int:
    sec = cfg.kernel
    prov = _provenance(cfg, "kernel")
    rows = [f"# {prov}", "alpha,t,r,u_alpha,pbar"]
    for alpha in sec["alphas"]:
        for t in sec["ts"]:
            for r in sec["rs"]:
                rows.append(f"{float(alpha)!r},{float(t)!r},{float(r)!r},"
                            f"{u_alpha(cfg.model, alpha, r)!r},"
                            f"{pbar_density(cfg.model, t, r)!r}")
    _atomic_write(os.path.join(cfg.out_dir, "kernels.csv"),
                  "\n".join(rows) + "\n")
    rows = [f"# {prov}", "alpha,t,varU,varV,varS,varEta,tail_bound"]
    summary = []
    for alpha in sec["alphas"]:
        for t in sec["ts"]:
            prof = variance_profile(
                cfg.model, KernelQuery(alpha, t,
                                       tolerance=sec["tolerance"]))
            rows.append(f"{float(alpha)!r},{float(t)!r},{prof.varU!r},"
                        f"{prof.varV!r},{prof.varS!r},{prof.varEta!r},"
                        f"{prof.tail_bound!r}")
            summary.append(f"alpha={alpha} t={t}: varU={prof.varU:.6g} "
                           f"varV={prof.varV:.6g} varS={prof.varS:.6g} "
                           f"varEta={prof.varEta:.6g}")
    _atomic_write(os.path.join(cfg.out_dir, "variances.csv"),
                  "\n".join(rows) + "\n")
    _write_summary(cfg, "kernel", summary)
    return EXIT_OK


def run_synth(cfg: ExperimentConfig) -> int:
    sec = cfg.synth
    alpha, t = sec["alpha"], sec["t"]
    gspec = sec.get("grid") or {}
    if gspec.get("cutoff"):
        grid = fields.SpectralGrid(gspec["cutoff"],
                                   int(gspec.get("modes") or 1 << 14))
    else:
        grid = fields.SpectralGrid.default(cfg.model, alpha)
        if gspec.get("modes"):
            grid = fields.SpectralGrid(grid.cutoff, int(gspec["modes"]))
    x_step = sec["x_step"] or (2.0 * math.pi / grid.cutoff) * 0.25
    x = np.arange(int(sec["x_points"])) * x_step
    n_deriv = sec["derivative_order"]
    v, s, eta, deriv = fields.sample_joint(cfg.model, alpha, t, grid, x,
                                           cfg.seed, replicate=0,
                                           derivative_order=n_deriv)
    prov = _provenance(cfg, "synth", f"alpha={alpha} t={t}")
    for samp in (v, s, eta) + ((deriv,) if deriv is not None else ()):
        name = f"field_{samp.kind}.csv"
        _atomic_write(os.path.join(cfg.out_dir, name),
                      fields.field_csv_text(samp, prov))
    lags = sec["lags"]
    if lags is None:
        lags = [0.0] + [x_step * m for m in (8, 16, 32, 64)]
    reps = int(sec["replications"])
    pts = np.unique(np.concatenate([[0.0], np.asarray(lags, dtype=float)]))
    vals = fields.ensemble_values(cfg.model, "eta", alpha, t, grid, pts,
                                  cfg.seed, reps)
    emp, se = [], []
    for r in lags:
        j = int(np.argmin(np.abs(pts - r)))
        prod = vals[:, 0] * vals[:, j]
        emp.append(float(np.mean(prod)))
        se.append(float(np.std(prod) / math.sqrt(reps)))
    _atomic_write(os.path.join(cfg.out_dir, "ensemble_stats.csv"),
                  fields.ensemble_stats_csv_text(cfg.model, "eta", alpha, t,
                                                 grid, lags, emp, se, prov))
    _write_summary(cfg, "synth", [
        f"fields on {x.size} points, grid cutoff={grid.cutoff:.6g} "
        f"modes={grid.n_modes}",
        f"ensemble replications={reps}; covariance at lags {list(lags)}",
        f"truncation tail={eta.bias.truncation_tail:.3e} "
        f"riemann={eta.bias.riemann_error:.3e}"])
    return EXIT_OK


def run_spde(cfg: ExperimentConfig) -> int:
    sec = cfg.spde
    tc = torus.TorusConfig(sec["circumference"], int(sec["modes"]),
                           sec["alpha"], sec["dt"])
    report = torus.run_moments(tc, cfg.model, sec["t_end"],
                               int(sec["paths"]), sec["probes"],
                               seed=cfg.seed)
    prov = _provenance(cfg, "spde",
                       f"L={tc.circumference} N={tc.n_modes} "
                       f"alpha={tc.alpha} dt={tc.dt}")
    _atomic_write(os.path.join(cfg.out_dir, "moments.csv"),
                  report.csv_text(prov))
    cov_lines = [f"# {prov}", "t,x1,x2,cov,exact_cov"]
    for c in report.covariances:
        cov_lines.append(f"{c.t!r},{c.x1!r},{c.x2!r},{c.cov!r},"
                         f"{c.exact_cov!r}")
    _atomic_write(os.path.join(cfg.out_dir, "covariances.csv"),
                  "\n".join(cov_lines) + "\n")
    lines = [f"paths={sec['paths']} t_end={sec['t_end']}"]
    if report.image_correction is not None:
        lines.append(f"image-sum correction: {report.image_correction:.3e}")
    if report.stationarity_gap is not None:
        lines.append(f"stationarity gap {report.stationarity_gap:.4e} vs "
                     f"relaxation bound {report.stationarity_bound:.4e}")
    for row in report.rows:
        lines.append(f"t={row.t:g} x={row.x:g}: mean={row.mean:.4e} "
                     f"var={row.var:.6g} exact={row.exact_var:.6g} "
                     f"se={row.stderr:.2e}")
    _write_summary(cfg, "spde", lines)
    return EXIT_OK


def run_localtime(cfg: ExperimentConfig) -> int:
    sec = cfg.localtime
    pc = localtime.PathConfig(sec["beta"], sec["c"], sec["dt"],
                              eps=sec["eps"], seed=cfg.seed)
    prov = _provenance(cfg, "localtime",
                       f"beta={pc.beta} c={pc.c} dt={pc.dt}")
    alpha, a, b, t = sec["alpha"], sec["a"], sec["b"], sec["t"]
    paths = int(sec["paths"])
    if sec["experiment"] == "resolvent":
        res = localtime.resolvent_check(pc, alpha, a, b, paths)
        verdict = abs(res.estimate - res.exact) <= 3.0 * res.stderr \
            + 0.05 * res.exact
        rows = [(alpha, t, a, b, res.estimate, res.exact, res.stderr,
                 0.0, paths, res.eps, res.dt, verdict)]
        lines = [f"resolvent estimate={res.estimate:.6g} "
                 f"exact={res.exact:.6g} se={res.stderr:.2e} "
                 f"verdict={'pass' if verdict else 'fail'}"]
    else:
        res = localtime.corollary_test(pc, alpha, a, b, t, paths)
        verdict = res.verdict
        rows = [(alpha, t, a, b, res.lhs, res.rhs, res.lhs_se, res.rhs_se,
                 paths, pc.bandwidth, pc.dt, verdict)]
        lines = [f"lhs={res.lhs:.6g} (se {res.lhs_se:.2e})  "
                 f"rhs={res.rhs:.6g} (se {res.rhs_se:.2e})  "
                 f"verdict={'pass' if verdict else 'fail'}"]
    _atomic_write(os.path.join(cfg.out_dir, "localtime.csv"),
                  localtime.experiment_csv_text(rows, prov))
    _write_summary(cfg, "localtime", lines)
    return EXIT_OK if verdict else EXIT_PROPERTY_FAILURE


def run_verify(cfg: ExperimentConfig, suites=None) -> int:
    sec = cfg.verify
    suite_names = suites or sec["suites"]
    results = verify.run_suites(suite_names, cfg.model, cfg.seed,
                                paths_scale=sec["paths_scale"],
                                tol_scale=sec["tolerance_scale"])
    prov = _provenance(cfg, "verify", f"suites={','.join(suite_names)}")
    rows = [f"# {prov}", "suite,name,passed,seconds,detail"]
    lines = []
    for r in results:
        rows.append(f"{r.suite},{r.name},{int(r.passed)},{r.seconds:.3f},"
                    f"\"{r.detail}\"")
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] "
                     f"{r.suite}/{r.name}: {r.detail} ({r.seconds:.1f}s)")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    _atomic_write(os.path.join(cfg.out_dir, "verify.csv"),
                  "\n".join(rows) + "\n")
    _write_summary(cfg, "verify", lines)
    return EXIT_OK if n_fail == 0 else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynkin-lab",
        description="Numerical laboratory for heat/cable spectral kernels, "
                    "Gaussian field synthesis, torus SPDE runs, and "
                    "local-time Monte Carlo")
    parser.add_argument("command",
                        choices=["check", "kernel", "synth", "spde",
                                 "localtime", "verify"])
    parser.add_argument("--config", required=True,
                        help="path to the JSON experiment configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured root seed")
    parser.add_argument("--out", default=None,
                        help="override the configured output directory")
    parser.add_argument("--paths", type=int, default=None,
                        help="override path/replication counts")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the kernel tolerance / verify "
                             "tolerance scale")
    parser.add_argument("--suite", action="append", default=None,
                        help="verify: restrict to this suite (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {"seed": args.seed, "out_dir": args.out,
             "spde.paths": args.paths, "localtime.paths": args.paths,
             "synth.replications": args.paths,
             "kernel.tolerance": args.tol, "verify.tolerance_scale": args.tol}
    try:
        with open(args.config) as handle:
            cfg = parse_config(handle.read(), {
                key: val for key, val in flags.items() if val is not None})
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return EXIT_USAGE
    except ConfigError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_USAGE
    runners = {"check": run_check, "kernel": run_kernel,
               "synth": run_synth, "spde": run_spde,
               "localtime": run_localtime}
    try:
        if args.command == "verify":
            return run_verify(cfg, suites=args.suite)
        return runners[args.command](cfg)
    except NonConvergenceError as exc:
        sys.stderr.write(
            f"numerical non-convergence in command {args.command!r} "
            f"(config {args.config}): {exc}\n")
        return EXIT_NONCONVERGENT
    except (ValueError, localtime.OccupancyError) as exc:
        sys.stderr.write(f"error in command {args.command!r} "
                         f"(config {args.config}): {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

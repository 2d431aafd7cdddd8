"""Command-line front end: check | kernel | synth | spde | localtime | verify.

One JSON configuration drives every command; flags override the config
(flags win) and are validated with it.  Exit status contract: 0 all pass,
1 property failure, 2 usage/config error, 3 numerical non-convergence.  All
output files are written atomically (temp + rename); every CSV table goes
through ``_write_table`` and carries a provenance comment sufficient to
reproduce it bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, fields, localtime, torus, verify
from .config import ConfigError, ExperimentConfig, parse_config
from .kernels import u_alpha, pbar_density, variance_profile
from .levy import condition_report
from .quadrature import NonConvergenceError

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # os.open applies the umask to 0o666, as open(path, "w") does;
    # tempfile.mkstemp would leave every output at 0o600
    tmp = os.path.join(directory,
                       f".tmp-dynkin-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
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


def _write_table(cfg, name, comments, header, rows):
    """Write the table ``name`` into the output directory.

    One ``# `` line per comment, then the header, then one line per row.  A
    float is written by repr, so it reads back bit for bit; any other value
    by str.
    """
    lines = [f"# {c}" for c in comments] + [header]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    _atomic_write(os.path.join(cfg.out_dir, name), "\n".join(lines) + "\n")


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
    tables = (("hawkes", report.hawkes_trend),
              ("quasi_increasing", report.quasi_increasing_ratio),
              ("kg", report.kg_ratio))
    _write_table(cfg, "check.csv",
                 [_provenance(cfg, "check", f"alpha={sec['alpha']}")],
                 "table,abscissa,value",
                 [(name, a, v) for name, table in tables for a, v in table])
    lines = [f"existence integral (alpha={sec['alpha']}): "
             f"{report.dalang_integral!r} "
             f"(tail bound {report.dalang_tail_bound!r})"]
    lines += [f"{k}: {v}" for k, v in sorted(report.verdicts.items())]
    _write_summary(cfg, "check", lines)
    return EXIT_OK


def run_kernel(cfg: ExperimentConfig) -> int:
    sec = cfg.kernel
    prov = _provenance(cfg, "kernel")
    # p-bar does not depend on alpha, nor u_alpha on t: once per (t, r)
    # and once per (alpha, r)
    pbar = functools.cache(lambda t, r: pbar_density(cfg.model, t, r))
    u = functools.cache(lambda alpha, r: u_alpha(cfg.model, alpha, r))
    _write_table(cfg, "kernels.csv", [prov], "alpha,t,r,u_alpha,pbar",
                 [(float(alpha), float(t), float(r), u(alpha, r), pbar(t, r))
                  for alpha in sec["alphas"] for t in sec["ts"]
                  for r in sec["rs"]])
    rows, summary = [], []
    for alpha in sec["alphas"]:
        for t in sec["ts"]:
            # the tolerance only tightens the library's 1e-9
            prof = variance_profile(cfg.model, alpha, t,
                                    rel_tol=min(1e-9, sec["tolerance"]))
            rows.append((float(alpha), float(t), *prof, prof.tail_bound))
            summary.append(f"alpha={alpha} t={t}: varU={prof.varU:.6g} "
                           f"varV={prof.varV:.6g} varS={prof.varS:.6g} "
                           f"varEta={prof.varEta:.6g}")
    _write_table(cfg, "variances.csv", [prov],
                 "alpha,t,varU,varV,varS,varEta,tail_bound", rows)
    _write_summary(cfg, "kernel", summary)
    return EXIT_OK


def run_synth(cfg: ExperimentConfig) -> int:
    sec = cfg.synth
    alpha, t = sec["alpha"], sec["t"]
    gspec = sec.get("grid") or {}
    modes = int(gspec.get("modes") or fields.DEFAULT_MODES)
    cutoff = gspec.get("cutoff") \
        or fields.SpectralGrid.default(cfg.model, alpha).cutoff
    grid = fields.SpectralGrid(cutoff, modes)
    x_step = sec["x_step"] or (2.0 * math.pi / grid.cutoff) * 0.25
    x = np.arange(int(sec["x_points"])) * x_step
    n_deriv = sec["derivative_order"]
    v, s, eta, deriv = fields.sample_joint(cfg.model, alpha, t, grid, x,
                                           cfg.seed, replicate=0,
                                           derivative_order=n_deriv)
    prov = _provenance(cfg, "synth", f"alpha={alpha} t={t}")
    for samp in (v, s, eta) + ((deriv,) if deriv is not None else ()):
        head = (f"kind={samp.kind} alpha={samp.alpha} t={samp.t} "
                f"derivative_order={samp.derivative_order} "
                f"seed={samp.seed} replicate={samp.replicate} "
                f"cutoff={samp.grid.cutoff!r} modes={samp.grid.n_modes} "
                f"truncation_tail={samp.bias.truncation_tail!r} "
                f"riemann_error={samp.bias.riemann_error!r}")
        _write_table(cfg, f"field_{samp.kind}.csv", [prov, head], "x,value",
                     zip(samp.x, samp.values))
    lags = sec["lags"]
    if lags is None:
        lags = [0.0] + [x_step * m for m in (8, 16, 32, 64)]
    reps = int(sec["replications"])
    pts = np.unique(np.concatenate([[0.0], np.asarray(lags, dtype=float)]))
    # eta's law reads no t: draw it from its own stream pair, not as V + S
    vals = fields.ensemble_values(cfg.model, "eta", alpha, None, grid, pts,
                                  cfg.seed, reps)
    rows = []
    for r in lags:
        emp, se = fields.ensemble_covariance(
            vals, int(np.argmin(np.abs(pts - r))))
        rows.append((float(r), emp, u_alpha(cfg.model, alpha, float(r)), se))
    _write_table(cfg, "ensemble_stats.csv", [prov],
                 "lag,empirical_cov,exact_cov,stderr", rows)
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
                           sec["alpha"])
    report = torus.run_moments(tc, cfg.model, sec["t_end"],
                               int(sec["paths"]), sec["probes"],
                               seed=cfg.seed)
    prov = _provenance(cfg, "spde",
                       f"L={tc.circumference} N={tc.n_modes} "
                       f"alpha={tc.alpha}")
    _write_table(cfg, "moments.csv", [prov],
                 "t,x,mean,var,exact_var,stderr,paths",
                 map(dataclasses.astuple, report.rows))
    _write_table(cfg, "covariances.csv", [prov], "t,x1,x2,cov,exact_cov",
                 map(dataclasses.astuple, report.covariances))
    lines = [f"paths={sec['paths']} t_end={sec['t_end']}"]
    if report.image_correction is not None:
        lines.append(f"image-sum correction: {report.image_correction:.3e}")
    if report.stationarity_gap is not None:
        lines.append(f"stationarity gap {report.stationarity_gap:.4e} "
                     f"(s.e. {report.stationarity_gap_se:.4e}) vs "
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
        row = (alpha, t, a, b, res.estimate, res.exact, res.stderr, 0.0,
               paths, res.eps, res.dt, res.verdict)
        line = (f"resolvent estimate={res.estimate:.6g} "
                f"exact={res.exact:.6g} se={res.stderr:.2e} ")
    else:
        res = localtime.corollary_test(pc, alpha, a, b, t, paths)
        row = (alpha, t, a, b, res.lhs, res.rhs, res.lhs_se, res.rhs_se,
               paths, pc.bandwidth, pc.dt, res.verdict)
        line = (f"lhs={res.lhs:.6g} (se {res.lhs_se:.2e})  "
                f"rhs={res.rhs:.6g} (se {res.rhs_se:.2e})  ")
    _write_table(cfg, "localtime.csv", [prov],
                 "alpha,t,a,b,lhs,rhs,lhs_se,rhs_se,paths,eps,dt,verdict",
                 [row])
    _write_summary(cfg, "localtime",
                   [line + f"verdict={'pass' if res.verdict else 'fail'}"])
    return EXIT_OK if res.verdict else EXIT_PROPERTY_FAILURE


def run_verify(cfg: ExperimentConfig, suites=None) -> int:
    sec = cfg.verify
    suite_names = suites or sec["suites"]
    results = verify.run_suites(suite_names, cfg.model, cfg.seed,
                                paths_scale=sec["paths_scale"],
                                tol_scale=sec["tolerance_scale"])
    # seconds to the millisecond: the one column that does not reproduce
    _write_table(cfg, "verify.csv",
                 [_provenance(cfg, "verify",
                              f"suites={','.join(suite_names)}")],
                 "suite,name,passed,seconds,detail",
                 [(r.suite, r.name, int(r.passed), f"{r.seconds:.3f}",
                   f"\"{r.detail}\"") for r in results])
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] "
             f"{r.suite}/{r.name}: {r.detail} ({r.seconds:.1f}s)"
             for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
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
        found = [f"{name} {val!r}" for name, val in (
            ("partial value", exc.partial), ("remainder", exc.remainder))
            if val is not None]
        sys.stderr.write(
            f"numerical non-convergence in command {args.command!r} "
            f"(config {args.config}): {exc}"
            + (f" ({', '.join(found)})" if found else "") + "\n")
        return EXIT_NONCONVERGENT
    except (ValueError, localtime.OccupancyError) as exc:
        sys.stderr.write(f"error in command {args.command!r} "
                         f"(config {args.config}): {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

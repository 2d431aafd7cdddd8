"""Runtime property suites: every module invariant as an executable check.

Each check returns a CheckResult; the CLI ``verify`` command runs the
requested suites and reports one line per check.  ``paths_scale`` shrinks or
grows the Monte Carlo sizes, ``tol_scale`` the deterministic tolerances
(both default to 1).  Each property is written once, here: the tests call
these checks with the seeds, scales and tolerances they need.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import fields, localtime, rng, torus
from .kernels import (AtomicMeasure, delta_difference, green_bound_constant,
                      quadratic_form, u_alpha, pbar_density,
                      spectral_envelope, variance_profile)
from .quadrature import cosine_transform
from .levy import (LevyMeasure, LevyModel, averaged_exponent,
                   feller_functions, re_psi, stable_jump_coefficient)


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def __post_init__(self):
        self.passed = bool(self.passed)


# ----------------------------------------------------------------- levy ---

def check_evenness(model, seed, scale, tol_scale):
    gen = rng.stream(seed, 99, 0, 0)
    xs = gen.uniform(-100.0, 100.0, 1000)
    worst = 0.0
    for x in xs:
        a, b = re_psi(model, float(x)), re_psi(model, float(-x))
        ref = max(min(abs(a), abs(b)), 1e-300)
        worst = max(worst, abs(a - b) / ref)
    return CheckResult("levy", "exponent-evenness", worst <= 1e-12 * tol_scale,
                       f"max relative asymmetry {worst:.2e}")


def check_second_moment_lower_bound(model, seed, scale, tol_scale):
    # ReTPsi(xi) >= K(1/xi)/3 for pure-jump models
    nu = LevyMeasure.power_law(1.0, 1.5)
    m = LevyModel.khintchine(0.0, nu)
    worst = math.inf
    for x in np.geomspace(0.5, 64.0, 12):
        k_val, _ = feller_functions(m, 1.0 / x)
        lhs = re_psi(m, float(x))
        worst = min(worst, lhs - k_val / 3.0)
    return CheckResult("levy", "second-moment-lower-bound",
                       worst >= -1e-6 * tol_scale, f"min slack {worst:.3e}")


def check_averaged_upper_bound(model, seed, scale, tol_scale):
    # (1/xi) int_0^xi ReTPsi <= K(1/xi)/2 + G(1/xi)
    nu = LevyMeasure.power_law(1.0, 1.5)
    m = LevyModel.khintchine(0.0, nu)
    worst = math.inf
    for x in np.geomspace(0.5, 64.0, 10):
        k_val, g_val = feller_functions(m, 1.0 / x)
        slack = 0.5 * k_val + g_val - averaged_exponent(m, float(x),
                                                        rel_tol=1e-6)
        worst = min(worst, slack)
    return CheckResult("levy", "averaged-exponent-upper-bound",
                       worst >= -1e-6 * tol_scale, f"min slack {worst:.3e}")


def check_stable_consistency(model, seed, scale, tol_scale):
    beta, c = 1.5, 1.0
    nu = LevyMeasure.power_law(stable_jump_coefficient(beta, c), beta)
    kh = LevyModel.khintchine(0.0, nu)
    ref = LevyModel.stable(beta, c)
    worst = 0.0
    for x in np.geomspace(0.1, 100.0, 16):
        a, b = re_psi(kh, float(x)), re_psi(ref, float(x))
        worst = max(worst, abs(a - b) / b)
    return CheckResult("levy", "stable-self-consistency",
                       worst <= 1e-4 * tol_scale,
                       f"max relative gap {worst:.2e}")


# -------------------------------------------------------------- kernels ---

def _kernel_models(model):
    out = [model]
    if model.kind != "stable" or model.beta != 1.5:
        out.append(LevyModel.stable(1.5, 1.0))
    return out


def check_green_bound(model, seed, scale, tol_scale):
    gen = rng.stream(seed, 99, 1, 0)
    worst = math.inf
    for m in _kernel_models(model):
        u1 = u_alpha(m, 1.0, 0.0)
        for _ in range(50):
            alpha = math.exp(gen.uniform(math.log(0.1), math.log(10.0)))
            x, y = gen.uniform(-5.0, 5.0, 2)
            slack = green_bound_constant(alpha) * u1 - u_alpha(m, alpha,
                                                               x - y)
            worst = min(worst, slack)
    return CheckResult("kernels", "green-bound", worst >= -1e-8 * tol_scale,
                       f"min slack {worst:.3e}")


def check_existence_sandwich(model, seed, scale, tol_scale):
    worst = math.inf
    for m in _kernel_models(model):
        for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
            u2a = u_alpha(m, 2.0 * alpha, 0.0)
            for t in (0.25, 0.5, 1.0, 2.0, 4.0):
                prof = variance_profile(m, alpha, t)
                tol = 1e-6 * tol_scale * (1.0 + u2a)
                worst = min(
                    worst,
                    prof.varV - (1 - math.exp(-t * alpha)) * u2a + tol,
                    math.exp(t * alpha) * u2a - prof.varV + tol,
                    prof.varU - (1 - math.exp(-2 * t * alpha)) * u2a + tol,
                    math.exp(2 * t * alpha) * u2a - prof.varU + tol)
    return CheckResult("kernels", "existence-sandwich", worst >= 0.0,
                       f"min slack {worst:.3e}")


def check_uv_sandwich(model, seed, scale, tol_scale):
    # V <= U <= 3 e^{alpha t} V for the point variances and for increments
    worst = math.inf
    increments = [delta_difference(0.0, lag) for lag in (0.8, 1.0)]
    for m in _kernel_models(model):
        for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
            for t in (0.25, 0.5, 1.0, 2.0, 4.0):
                prof = variance_profile(m, alpha, t)
                pairs = [(prof.varV, prof.varU)] + [
                    (quadratic_form(m, alpha, mu, "varV", t=t),
                     quadratic_form(m, alpha, mu, "varU", t=t))
                    for mu in increments]
                for v, u in pairs:
                    tol = 1e-8 * tol_scale * (1.0 + u)
                    worst = min(worst, u - v + tol,
                                3 * math.exp(alpha * t) * v - u + tol)
    return CheckResult("kernels", "heat-cable-sandwich", worst >= 0.0,
                       f"min slack {worst:.3e}")


def check_bd2_exact(model, seed, scale, tol_scale):
    gen = rng.stream(seed, 99, 2, 0)
    worst = math.inf
    for m in _kernel_models(model):
        for _ in range(5):
            n = int(gen.integers(2, 5))
            mu = AtomicMeasure.from_atoms(
                [(gen.uniform(-2, 2), gen.uniform(-1, 1)) for _ in range(n)])
            alpha = math.exp(gen.uniform(math.log(0.5), math.log(4.0)))
            t = math.exp(gen.uniform(math.log(0.25), math.log(2.0)))
            qs = quadratic_form(m, alpha, mu, "varS", t=t)
            qv = quadratic_form(m, alpha, mu, "varV", t=t)
            bound = qv / (math.exp(t * alpha) - 1.0)
            tol = 1e-8 * tol_scale * (1.0 + min(qv, bound))
            worst = min(worst, bound - qs + tol)
    return CheckResult("kernels", "tail-smoother-than-cable", worst >= 0.0,
                       f"min slack {worst:.3e}")


def check_spectral_additivity(model, seed, scale, tol_scale):
    worst = 0.0
    for m in _kernel_models(model):
        for alpha in (1e-3, 0.5, 2.0, 8.0):
            for t in (0.25, 1.0, 4.0, 100.0):
                prof = variance_profile(m, alpha, t)
                gap = abs(prof.varV + prof.varS - prof.varEta) / prof.varEta
                worst = max(worst, gap)
    return CheckResult("kernels", "spectral-additivity",
                       worst <= 1e-8 * tol_scale,
                       f"max relative gap {worst:.2e}")


def check_pbar_monotone(model, seed, scale, tol_scale):
    ts = np.geomspace(0.1, 10.0, 15)
    vals = [pbar_density(model, float(t), 0.0) for t in ts]
    diffs = np.diff(vals)
    return CheckResult("kernels", "pbar-time-monotonicity",
                       np.all(diffs <= 1e-10 * tol_scale * max(vals)),
                       f"max increase {float(np.max(diffs)):.3e}")


def check_quadratic_form_routes(model, seed, scale, tol_scale):
    mu = AtomicMeasure.from_atoms([(0.0, 1.0), (0.7, -0.5), (1.3, 0.25)])
    gaps = {}
    for kernel, alpha, t in (("potential", 2.0, None), ("pbar", None, 0.5),
                             ("varV", 1.0, 1.0), ("varS", 1.0, 1.0),
                             ("varU", None, 1.0)):
        a = quadratic_form(model, alpha, mu, kernel, t=t, route="pairs")
        b = quadratic_form(model, alpha, mu, kernel, t=t, route="spectral")
        gaps[kernel] = abs(a - b) / max(abs(a), 1e-12)
    kernel = max(gaps, key=gaps.get)
    return CheckResult("kernels", "quadratic-form-route-agreement",
                       gaps[kernel] <= 1e-5 * tol_scale,
                       f"max relative gap {gaps[kernel]:.2e} ({kernel})")


# ------------------------------------------------------------ synthesis ---

def check_field_determinism(model, seed, scale, tol_scale):
    grid = fields.SpectralGrid(128.0, 512)
    x = np.linspace(0.0, 4.0, 33)
    a, b = (fields.sample_joint(model, 2.0, 1.0, grid, x, seed, replicate=5,
                                derivative_order=3) for _ in range(2))
    same = all(np.array_equal(p.values, q.values) for p, q in zip(a, b))
    ident = bool(np.array_equal(a[2].values, a[0].values + a[1].values))
    finite = bool(np.all(np.isfinite(a[3].values)))
    return CheckResult("synthesis", "determinism-and-exact-sum",
                       same and ident and finite,
                       f"bit-identical={same} eta=V+S exact={ident} "
                       f"finite derivative={finite}")


def check_discretisation_consistency(model, seed, scale, tol_scale):
    alpha, t = 2.0, 1.0
    prof = variance_profile(model, alpha, t)
    worst = 0.0
    for cutoff, modes in ((256.0, 2048), (256.0, 8192), (1024.0, 8192),
                          (4096.0, 32768)):
        grid = fields.SpectralGrid(cutoff, modes)
        for kind, target in (("V", prof.varV), ("S", prof.varS),
                             ("eta", prof.varEta), ("U", prof.varU)):
            disc = 2.0 * float(np.sum(fields.spectral_density(
                kind, model, alpha, t, grid.frequencies))) * grid.delta_xi
            bias = fields.discretisation_bias(kind, model, alpha, t, grid)
            allowed = 2.0 * bias.total + 1e-9 * target
            gap = abs(disc - target)
            worst = max(worst, gap / allowed if allowed > 0 else 0.0)
    return CheckResult("synthesis", "discretisation-consistency",
                       worst <= 1.0 * tol_scale,
                       f"max gap / reported bias {worst:.3f}")


def check_bd2_empirical(model, seed, scale, tol_scale):
    alpha, t = 1.0, math.log(2.0)
    reps = max(2000, int(20000 * scale))
    grid = fields.SpectralGrid(1024.0, 4096)
    pts = np.array([0.0, 1.0])
    v = fields.ensemble_values(model, "V", alpha, t, grid, pts, seed, reps)
    s = fields.ensemble_values(model, "S", alpha, t, grid, pts, seed, reps)
    dv = v[:, 0] - v[:, 1]
    ds = s[:, 0] - s[:, 1]
    ev, es = float(np.mean(dv**2)), float(np.mean(ds**2))
    se = math.sqrt(np.var(ds**2) / reps
                   + np.var(dv**2) / reps / (math.exp(t * alpha) - 1.0)**2)
    slack = ev / (math.exp(t * alpha) - 1.0) + 3.0 * se - es
    return CheckResult("synthesis", "tail-smoother-empirical", slack >= 0,
                       f"slack {slack:.3e} (3 s.e. = {3*se:.3e})")


def check_derivative_variance(model, seed, scale, tol_scale):
    # order n is drawn from seed + n, so the four 3-se gates are independent
    m = LevyModel.stable(1.5, 1.0)
    alpha, t = 1.0, 0.5
    reps = max(2000, int(20000 * scale))
    grid = fields.SpectralGrid(64.0, 4096)
    env = spectral_envelope("varS", m, alpha, t)
    worst = math.inf
    for n in (1, 2, 3, 4):
        vals = fields.ensemble_values(m, "S", alpha, t, grid,
                                      np.array([0.0]), seed + n, reps,
                                      derivative_order=n)[:, 0]
        emp = float(np.mean(vals**2))
        exact = (1.0 / math.pi) * cosine_transform(
            lambda x: x ** (2 * n) * env(x), 0.0)[0]
        bias = fields.discretisation_bias("S", m, alpha, t, grid,
                                          derivative_order=n).total
        se = rng.second_moment_se(emp, reps)
        slack = 3.0 * se + bias - abs(emp - exact)
        worst = min(worst, slack)
    return CheckResult("synthesis", "derivative-field-variance", worst >= 0,
                       f"min slack {worst:.3e}")


def check_eta_covariance(model, seed, scale, tol_scale):
    alpha = 2.0
    reps = max(2000, int(10000 * scale))
    grid = fields.SpectralGrid(1024.0, 4096)
    pts = np.array([0.0, 0.5, 1.0])
    # eta's law reads no t: draw it from its own stream pair, not as V + S
    vals = fields.ensemble_values(model, "eta", alpha, None, grid, pts, seed,
                                  reps)
    bias = fields.discretisation_bias("eta", model, alpha, None, grid).total
    worst = math.inf
    for j, r in enumerate(pts):
        emp, se = fields.ensemble_covariance(vals, j)
        exact = u_alpha(model, alpha, float(r))
        worst = min(worst, 3.0 * se + bias - abs(emp - exact))
    return CheckResult("synthesis", "stationary-covariance", worst >= 0,
                       f"min slack {worst:.3e}")


# ----------------------------------------------------------------- spde ---

def check_dt_invariance(model, seed, scale, tol_scale):
    # Var u(1, x) pooled over three probes: dt = 0.1 (seed + 1) against the
    # exact value, and against dt = 0.0125 (seed); s.e. from the exact value
    paths = max(500, int(2000 * scale))
    var = {}
    cfg = torus.TorusConfig(16.0, 65, 2.0)
    for dt, s in ((0.1, seed + 1), (0.0125, seed)):
        acc = rng.Moments()   # per path: (sum u, sum u^2) over the probes
        for (u,) in torus._paths(
                torus.StepOperator(cfg, model, dt), s, paths,
                (int(round(1.0 / dt)),),
                lambda m: torus.snapshot(m, cfg, [0.0, 5.0, 10.0])):
            acc.add(np.array([u.sum(), (u * u).sum()]))
        mean, mean_sq = acc.total / (3 * acc.n)
        var[dt] = mean_sq - mean * mean
    exact = torus.point_covariance_exact(cfg, model, 1.0, 0.0)  # free of dt
    se = rng.second_moment_se(exact, paths)
    worst = min(3 * se - abs(var[0.1] - exact),
                3 * math.sqrt(2) * se - abs(var[0.1] - var[0.0125]))
    return CheckResult("spde", "dt-invariance-in-law", worst >= 0,
                       f"min slack {worst:.4e} (3 s.e. = {3*se:.4e})")


def check_hermitian_preservation(model, seed, scale, tol_scale):
    # only n >= 0 is stored and u_-n is conj(u_n), so the gap is 2 |Im u_0|;
    # a fault in the step's decay or noise scale makes it nonzero within
    # two steps, so 1000 steps suffice
    steps = 1000
    cfg = torus.TorusConfig(8.0, 5, 1.0)
    [(u0,)] = torus._paths(torus.StepOperator(cfg, model, 0.01), seed, 1,
                           (steps,), lambda m: m[0])
    gap = 2.0 * abs(u0.imag)
    real_zero = math.copysign(1.0, u0.imag) == 1.0
    return CheckResult("spde", "hermitian-symmetry",
                       gap == 0.0 and real_zero,
                       f"max |u_n - conj(u_-n)| = {gap:.1e} over {steps} "
                       f"steps")


def check_stationary_spectrum(model, seed, scale, tol_scale):
    cfg = torus.TorusConfig(16.0, 33, 2.0)
    paths = max(500, int(2000 * scale))
    t_end = 4.0
    acc = np.zeros(cfg.half + 1)
    for (power,) in torus._paths(torus.StepOperator(cfg, model, t_end), seed,
                                 paths, (1,), lambda m: np.abs(m) ** 2):
        acc += power
    emp = acc / paths
    rate = torus._rates(cfg, model)
    exact = 1.0 / (cfg.circumference * rate)
    relax = np.exp(-rate * t_end) * exact
    se = rng.second_moment_se(exact, paths)  # two d.o.f. per mode
    worst = float(np.min(3.0 * se + relax - np.abs(emp - exact)))
    return CheckResult("spde", "stationary-mode-spectrum", worst >= 0,
                       f"min slack {worst:.3e}")


def check_heat_cable_modes(model, seed, scale, tol_scale):
    heat = torus.TorusConfig(16.0, 129, 0.0)
    for alpha in (1.5, 2.0):
        cable = torus.TorusConfig(16.0, 129, alpha)
        for t in (0.1, 0.25, 1.0, 4.0, 10.0):
            vu = torus.mode_variance(heat, model, t)
            vv = torus.mode_variance(cable, model, t)
            if not np.all(vv <= vu + 1e-15):
                return CheckResult("spde", "per-mode-heat-dominates-cable",
                                   False, f"violated at alpha={alpha}, t={t}")
    return CheckResult("spde", "per-mode-heat-dominates-cable", True,
                       "formula inequality holds on all modes")


# ------------------------------------------------------------ localtime ---

# the walk of every local-time check; each check sets its own seed on it
_LT_WALK = localtime.PathConfig(1.5, 0.5, 1e-3)


def check_lt_additivity(model, seed, scale, tol_scale):
    cfg = _LT_WALK
    gen = rng.stream(seed, rng.DOMAIN_PATH, 0)
    pos = localtime.simulate_path(cfg, 4000, gen)
    eps = cfg.bandwidth
    whole = localtime.local_time(pos, cfg.dt, 0.1, eps)
    first = localtime.local_time(pos[:2001], cfg.dt, 0.1, eps)
    second = localtime.local_time(pos[2000:], cfg.dt, 0.1, eps)
    # the box counts split exactly; the scaled values agree to rounding
    counts = [localtime._count(seg, 0.1, eps)
              for seg in (pos, pos[:2001], pos[2000:])]
    ok = counts[0] == counts[1] + counts[2] \
        and abs(whole - (first + second)) <= 1e-12 * abs(first + second)
    return CheckResult("localtime", "additivity-under-restart", ok,
                       f"counts {counts[0]} = {counts[1]} + {counts[2]}")


def check_lt_domination(model, seed, scale, tol_scale):
    paths = max(1000, int(4000 * scale))
    y, x = 0.0, 0.5
    times = [1.0, 2.0, 4.0]
    mx, sx = localtime.mean_local_times(replace(_LT_WALK, seed=seed), x,
                                        [y], times, paths)
    my, sy = localtime.mean_local_times(replace(_LT_WALK, seed=seed + 1), y,
                                        [y], times, paths)
    worst = math.inf
    for ti, t in enumerate(times):
        se = math.hypot(sx[ti, 0], sy[ti, 0])
        worst = min(worst, my[ti, 0] + 3 * se - mx[ti, 0])
        bound = 2.0 * t * my[0, 0]
        se2 = math.hypot(sx[ti, 0], 2.0 * t * sy[0, 0])
        worst = min(worst, bound + 3 * se2 - mx[ti, 0])
    return CheckResult("localtime", "hitting-domination-and-linear-growth",
                       worst >= 0, f"min slack {worst:.4e}")


def check_lt_discounted_split(model, seed, scale, tol_scale):
    paths = max(2000, int(10000 * scale))
    res = localtime.discounted_split_check(replace(_LT_WALK, seed=seed), 1.0,
                                           0.0, 1.0, math.log(2.0), paths)
    return CheckResult("localtime", "discounted-split-inequality",
                       res.verdict and res.margin > 0,
                       f"margin {res.margin:.4e} (se {res.margin_se:.1e})")


SUITES = {
    "levy": [check_evenness, check_second_moment_lower_bound,
             check_averaged_upper_bound, check_stable_consistency],
    "kernels": [check_green_bound, check_existence_sandwich,
                check_uv_sandwich, check_bd2_exact,
                check_spectral_additivity, check_pbar_monotone,
                check_quadratic_form_routes],
    "synthesis": [check_field_determinism, check_discretisation_consistency,
                  check_bd2_empirical, check_derivative_variance,
                  check_eta_covariance],
    "spde": [check_dt_invariance, check_hermitian_preservation,
             check_stationary_spectrum, check_heat_cable_modes],
    "localtime": [check_lt_additivity, check_lt_domination,
                  check_lt_discounted_split],
}


def run_suites(suite_names, model: LevyModel, seed: int,
               paths_scale: float = 1.0,
               tol_scale: float = 1.0) -> list[CheckResult]:
    results = []
    for name in suite_names:
        if name not in SUITES:
            raise ValueError(f"unknown verify suite {name!r}")
        for fn in SUITES[name]:
            t0 = time.perf_counter()
            res = fn(model, seed, paths_scale, tol_scale)
            res.seconds = time.perf_counter() - t0
            results.append(res)
    return results

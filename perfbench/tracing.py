"""Layer spans and counts, recorded from outside dynkin_lab.

The tracer replaces each traced function at every name under which a
dynkin_lab module holds it (``levy.adaptive`` and ``quadrature.adaptive``
are one function imported under two names), so calls made inside the
package are seen as well as the benchmark's own.  Spans (name, start, end,
parent) are kept in flat arrays and written out once, at the end of the
run.  Self time is a span's duration minus the durations of its direct
children; inclusive time (``.s``) counts only the outermost span of a name,
so a recursive call is not counted twice.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

from dynkin_lab import (cli, fields, kernels, levy, localtime, quadrature,
                        rng, torus)

# (metric name, unit) in the order they are reported
METRICS = [
    ("levy.re_psi.points", "count"),
    ("levy.re_psi.self_s", "s"),
    ("levy.jump_exponent.calls", "count"),
    ("levy.jump_exponent.self_s", "s"),
    ("levy.condition_report.s", "s"),
    ("levy.feller_functions.calls", "count"),
    ("levy.canonical_measure.calls", "count"),
    ("levy.canonical_measure.s", "s"),
    ("quadrature.gl_panel.calls", "count"),
    ("quadrature.adaptive.calls", "count"),
    ("quadrature.adaptive.self_s", "s"),
    ("quadrature.integral_to_infinity.calls", "count"),
    ("quadrature.cosine_transform.calls", "count"),
    ("quadrature.cosine_transform.self_s", "s"),
    ("quadrature.dyadic_integral_to_zero.calls", "count"),
    ("kernels.kernel_value.calls", "count"),
    ("kernels.u_alpha.s", "s"),
    ("kernels.pbar_density.s", "s"),
    ("kernels.variance_profile.s", "s"),
    ("fields.sample_joint.s", "s"),
    ("fields.synthesise.s", "s"),
    ("fields.discretisation_bias.s", "s"),
    ("fields.ensemble_values.s", "s"),
    ("fields.spectral_density.calls", "count"),
    ("rng.stream.calls", "count"),
    ("rng.stream.s", "s"),
    ("rng.variates.field", "count"),
    ("rng.variates.torus", "count"),
    ("rng.variates.path", "count"),
    ("torus.step_apply.calls", "count"),
    ("torus.step_apply.self_s", "s"),
    ("torus.step_operator_init.calls", "count"),
    ("torus.run_moments.s", "s"),
    ("localtime.paths", "count"),
    ("localtime.path_steps", "count"),
    ("localtime.simulate_path.self_s", "s"),
    ("localtime.resolvent_check.s", "s"),
    ("localtime.corollary_test.s", "s"),
    ("localtime.discounted_split_check.s", "s"),
    ("localtime.loop_self_s", "s"),
    ("cli.main.s", "s"),
    ("cli.atomic_write.s", "s"),
    ("cli.bytes_written", "bytes"),
]

# metrics fed by counters rather than derived from spans
_COUNTERS = ("levy.re_psi.points", "quadrature.gl_panel.calls",
             "fields.spectral_density.calls", "rng.variates.field",
             "rng.variates.torus", "rng.variates.path",
             "torus.step_operator_init.calls", "localtime.paths",
             "localtime.path_steps", "cli.bytes_written")
_MC_LOOPS = ("localtime.resolvent_check", "localtime.corollary_test",
             "localtime.discounted_split_check")


def _rebind(original, replacement):
    """Point every dynkin_lab module name bound to ``original`` at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dynkin_lab"
                               or mod_name.startswith("dynkin_lab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def spanned(self, name: str, fn, tally=None):
        nid = self._id(name)
        stack, depth = self._stack, self._depth
        names, parents, outers = self.name, self.parent, self.outer
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tally is not None:
                tally(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outers.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, tally=None):
        def wrapper(*args, **kwargs):
            if tally is None:
                self._count(name)
            else:
                tally(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced boundary; call once, after dynkin_lab is
        imported and before the first timed round."""
        count = self._count

        def span(module, attr, name, tally=None):
            original = getattr(module, attr)
            _rebind(original, self.spanned(name, original, tally))

        def counter(module, attr, name, tally=None):
            original = getattr(module, attr)
            _rebind(original, self.counted(name, original, tally))

        def method(cls, attr, name, spanned=True, tally=None):
            original = getattr(cls, attr)
            wrap = self.spanned if spanned else self.counted
            setattr(cls, attr, wrap(name, original, tally))

        span(levy, "re_psi", "levy.re_psi",
             lambda a, k: count("levy.re_psi.points",
                                int(np.size(a[1] if len(a) > 1
                                            else k["xi"]))))
        span(levy, "_jump_exponent", "levy.jump_exponent")
        span(levy, "condition_report", "levy.condition_report")
        span(levy, "feller_functions", "levy.feller_functions")
        method(levy.LevyModel, "canonical_measure", "levy.canonical_measure")
        counter(quadrature, "gl_panel", "quadrature.gl_panel.calls")
        for attr in ("adaptive", "integral_to_infinity", "cosine_transform",
                     "dyadic_integral_to_zero"):
            span(quadrature, attr, "quadrature." + attr)
        for attr in ("kernel_value", "u_alpha", "pbar_density",
                     "variance_profile"):
            span(kernels, attr, "kernels." + attr)
        for attr in ("sample_joint", "discretisation_bias",
                     "ensemble_values"):
            span(fields, attr, "fields." + attr)
        span(fields, "_synthesise", "fields.synthesise")
        counter(fields, "spectral_density", "fields.spectral_density.calls")
        # (seed, replicate, component, n_modes): one normal per mode
        counter(fields, "_mode_normals", "rng.variates.field",
                lambda a, k: count("rng.variates.field", int(a[3])))
        span(rng, "stream", "rng.stream")
        # one complex innovation (two normals) per stored mode and step
        method(torus.StepOperator, "apply", "torus.step_apply",
               tally=lambda a, k: count("rng.variates.torus",
                                        2 * a[0].cfg.half + 2))
        method(torus.StepOperator, "__init__",
               "torus.step_operator_init.calls", spanned=False)
        span(torus, "run_moments", "torus.run_moments")

        def path_tally(a, k):
            cfg, n_steps = a[0], int(a[1])
            count("localtime.paths")
            count("localtime.path_steps", n_steps)
            # the exponential clock S(alpha), then per step one uniform
            # and, for beta != 1, one exponential
            count("rng.variates.path",
                  1 + n_steps * (1 if cfg.beta == 1.0 else 2))

        span(localtime, "simulate_path", "localtime.simulate_path",
             path_tally)
        for attr in ("resolvent_check", "corollary_test",
                     "discounted_split_check"):
            span(localtime, attr, "localtime." + attr)
        span(cli, "main", "cli.main")
        span(cli, "_atomic_write", "cli.atomic_write",
             lambda a, k: count("cli.bytes_written",
                                len(a[1].encode("utf-8"))))

    def spans(self):
        """(name id, parent, outermost, start, end) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.outer, dtype=np.int8).astype(bool),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def metrics(self) -> dict[str, float]:
        name, parent, outer, start, end = self.spans()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent],
                                      weights=dur[has_parent],
                                      minlength=dur.size)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name[outer], weights=dur[outer],
                           minlength=n_names)
        selfs = np.bincount(name, weights=self_time, minlength=n_names)
        by_name = {n: (int(calls[i]), float(incl[i]), float(selfs[i]))
                   for i, n in enumerate(self.names)}

        def span_stat(base, which):
            c, s, sf = by_name.get(base, (0, 0.0, 0.0))
            return {"calls": c, "s": s, "self_s": sf}[which]

        out = {}
        for metric, _ in METRICS:
            if metric in _COUNTERS:
                out[metric] = self.counts.get(metric, 0)
            elif metric == "localtime.loop_self_s":
                out[metric] = sum(span_stat(b, "self_s") for b in _MC_LOOPS)
            else:
                base, which = metric.rsplit(".", 1)
                out[metric] = span_stat(base, which)
        return out

    def save(self, path: str):
        name, parent, outer, start, end = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, outermost=outer, start=start,
                            end=end)

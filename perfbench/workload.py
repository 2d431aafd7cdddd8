"""Run one workload in this (fresh) process and print one JSON line.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
                                  --trace 0|1 --out DIR [--setup-only]
                                  [--smoke]

Started by run.py with the BLAS/OpenMP thread pin in its environment and
the repository root as working directory.  Set-up (import of dynkin_lab and
building the models, configs and grids) is timed first; then a fixed
number of rounds, each a fixed list of operations, is timed round by round.
The number of rounds follows from --seconds and the workload's nominal
round time, never from the clock, so every run of a workload at one
--seconds does the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import sys
import time


def _peak_rss_mib() -> float:
    """High-water resident set of this process (Linux VmHWM), in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _blas() -> str:
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _snapshot(op, value) -> bytes:
    """Bytes that identify an operation's output: its CSV files for a CLI
    operation, the pickled result otherwise."""
    if op.out_dir is None:
        return pickle.dumps(value)
    parts = [repr(value).encode()]
    for name in sorted(os.listdir(op.out_dir)):
        with open(os.path.join(op.out_dir, name), "rb") as handle:
            parts.append(name.encode() + b"\0" + handle.read())
    return b"\0\0".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import dynkin_lab
    import dynkin_lab.cli  # noqa: F401  (imports every module it drives)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload](args.out, args.seed, args.smoke)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    n_rounds = 1 if args.smoke else max(
        wl.min_rounds, int(args.seconds // wl.nominal_round_s))
    checks = workloads.Checks()
    attempted = failed = 0
    round_s = []
    first: dict[str, bytes] = {}
    for rnd in range(n_rounds):
        outcomes = []
        start = time.perf_counter()
        for op in wl.ops:
            try:
                outcomes.append((op, op.run(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                outcomes.append((op, None, exc))
        round_s.append(time.perf_counter() - start)

        results = {}
        for op, value, exc in outcomes:
            attempted += 1
            if exc is not None or (op.out_dir is not None and value != 0):
                failed += 1
                if rnd == 0:
                    reason = (f"{type(exc).__name__}: {exc}" if exc
                              else f"exit status {value}")
                    sys.stderr.write(f"operation {op.name} failed: "
                                     f"{reason}\n")
                continue
            results[op.name] = value
            snap = _snapshot(op, value)
            if rnd == 0:
                first[op.name] = snap
            else:
                checks.true(first.get(op.name) == snap,
                            f"round {rnd}: {op.name} output differs from "
                            "round 0")
        if rnd == 0:
            wl.check(results, checks)

    report = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "checks": checks.count,
        "check_failures": checks.failures[:10],
        "setup_s": setup_s,
        "run_s": sum(round_s),
        "round_s": round_s,
        "round_p50_s": statistics.median(round_s),
        "peak_rss_mb": _peak_rss_mib(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "blas": _blas(),
    }
    if tracer is not None:
        values = tracer.metrics()
        report["layers"] = {name: (values[name], unit)
                            for name, unit in tracing.METRICS}
        trace_dir = os.path.join(os.path.dirname(args.out), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.save(os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.npz"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

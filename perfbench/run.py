"""Benchmark of dynkin-lab: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds 30 --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  Each workload runs in a fresh process with
the BLAS and OpenMP thread pools pinned to one thread.  With --trace 0 the
last line of output is a JSON object with the end-to-end metrics (setup_s,
run_s, round_p50_s, peak_rss_mb); with --trace 1 it holds the per-layer
metrics of a traced run instead.  --smoke runs every workload with one
small round and all its checks, traced, and exits non-zero if any check or
operation fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectral-stable", "spectral-khintchine", "synthesis",
             "montecarlo")
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 6        # extra fresh-process set-ups; setup_s is the median
CHILD_TIMEOUT_S = 170.0
OUT_ROOT = ".perfbench_out"
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("round_p50_s", "s"),
              ("peak_rss_mb", "MiB"))


def _revision(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def print_header(root: str):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    nproc = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count()
    print(f"revision: {_revision(root)}")
    print(f"python: {platform.python_version()} "
          f"({platform.python_implementation()}), numpy: {numpy_version}")
    print(f"nproc: {nproc} (cpu_count {os.cpu_count()})")
    print("thread pin: " + " ".join(f"{k}={v}"
                                    for k, v in sorted(THREAD_PIN.items())))
    sys.stdout.flush()


def _child(root, workload, seed, seconds, trace, out, extra, deadline):
    """Run workload.py in a fresh process; its last stdout line as a dict."""
    env = dict(os.environ, **THREAD_PIN)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out,
           *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload {workload} exceeded its time limit")
    finally:
        shutil.rmtree(os.path.join(root, out), ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with status "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(root, workload, seed, seconds, trace, smoke=False):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    tag = f"{workload}-seed{seed}-pid{os.getpid()}"
    extra = ("--smoke",) if smoke else ()
    report = _child(root, workload, seed, seconds, trace,
                    os.path.join(OUT_ROOT, tag), extra, deadline)
    if not trace or smoke:
        setups = [report["setup_s"]]
        for k in range(1 if smoke else SETUP_PROBES):
            probe = _child(root, workload, seed, seconds, 0,
                           os.path.join(OUT_ROOT, f"{tag}-setup{k}"),
                           ("--setup-only",), deadline)
            setups.append(probe["setup_s"])
        report["setup_s"] = statistics.median(setups)
        report["setup_samples"] = setups
    return report


def print_report(workload, seed, report, trace):
    print(f"workload {workload} (seed {seed}): attempted "
          f"{report['attempted']}, failed {report['failed']}, "
          f"checks {report['checks']}, correct "
          f"{str(report['correct']).lower()}, rounds "
          f"{len(report['round_s'])}; python {report['python']}, numpy "
          f"{report['numpy']}, blas {report['blas']}")
    for message in report["check_failures"]:
        print(f"  CHECK FAILED: {message}")
    print("  round times (s): " + " ".join(f"{x:.3f}"
                                           for x in report["round_s"]))
    rows = [(name, report[name], unit) for name, unit in END_TO_END
            if name in report]
    if trace:
        rows += [(name, value, unit)
                 for name, (value, unit) in report["layers"].items()]
    for name, value, unit in rows:
        print(f"  {name:<42} {value:>16.6g} {unit}")
    sys.stdout.flush()


def result_line(report, trace) -> str:
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def smoke(root) -> int:
    ok = True
    for workload in WORKLOADS:
        try:
            report = run_workload(root, workload, 1, 1, 1, smoke=True)
        except RuntimeError as exc:
            print(f"workload {workload}: {exc}")
            ok = False
            continue
        print_report(workload, 1, report, trace=True)
        ok &= report["correct"] and report["failed"] == 0
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dynkin_lab",
                                       "__init__.py")):
        sys.stderr.write("perfbench: src/dynkin_lab not found; run from the "
                         "root of a dynkin-lab checkout\n")
        return 2
    print_header(root)
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    try:
        report = run_workload(root, args.workload, args.seed, args.seconds,
                              args.trace)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print_report(args.workload, args.seed, report, args.trace)
    print(result_line(report, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

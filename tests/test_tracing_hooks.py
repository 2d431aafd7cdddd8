"""The benchmark's tracer must find every name it wraps in the package,
and count what the montecarlo workload reports; the configs the benchmark
times must parse."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from dynkin_lab import rng

ROOT = Path(__file__).resolve().parents[1]


def _run(code):
    """Run code in a fresh interpreter that imports the package and the
    benchmark's tracer; returns its stdout."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_tracer_installs():
    _run("import tracing; tracing.Tracer().install()")


_WORKLOADS = """
import tempfile
import workloads

with tempfile.TemporaryDirectory() as out:
    for name, cls in workloads.WORKLOADS.items():
        cls(out + "/" + name, 1, True)
"""


def test_benchmark_configs_parse():
    # every cli_op parses the config the benchmark times, so a schema
    # change that would fail the benchmark run fails here
    _run(_WORKLOADS)


_PATH_COUNTERS = """
import json
import tracing
from dynkin_lab import localtime

tracer = tracing.Tracer()
tracer.install()
cfg = localtime.PathConfig(1.5, 0.5, 1e-3, seed=3)
localtime.resolvent_check(cfg, 1.0, 0.0, 0.0, 50)
localtime.mean_local_times(cfg, 0.0, [0.0], [1.0], 20)
metrics = tracer.metrics()
print(json.dumps({k: metrics[k]
                  for k in ("localtime.paths", "localtime.path_steps")}))
"""


def test_benchmark_path_counters():
    # the montecarlo workload's path counts: one per simulated path, and
    # ceil(S_p/dt) >= 1 steps under the clock S_p of path p's stream
    counts = json.loads(_run(_PATH_COUNTERS))
    # S_p is the first draw of the stream, divided by alpha = 1
    clocks = [rng.stream(3, rng.DOMAIN_PATH, p).standard_exponential()
              for p in range(50)]
    steps = sum(max(1, int(math.ceil(s / 1e-3))) for s in clocks)
    assert counts == {"localtime.paths": 70,
                      "localtime.path_steps": steps + 20 * 1000}

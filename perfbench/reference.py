"""Reference figures that vary too much from run to run to be gated metrics.

    python3 perfbench/run.py --workload scalar-quantile --seed 1 --seconds 25 --trace 1
    python3 perfbench/reference.py

Run from the root of a lambertq checkout, after a traced scalar-quantile
run has written perfbench/out/trace-scalar-quantile.json.  Prints, as
Markdown: latency percentiles of single quantile calls per class (from the
trace), sample(workers=2) against serial, `-X importtime` of the library
and of scipy.special, and single `lambertq sample --n 1000000` invocations.
"""

import json
import os
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import lambertq  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tail_percentile(n):
    """The highest of p99.9, p99, p90 that leaves at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def scalar_latencies(path):
    with open(path) as f:
        doc = json.load(f)
    by_class = {c: [] for c in workloads.CLASSES}
    for s in doc["spans"]:
        if (s[tracing.ROUTE] == "scalar-quantile" and s[tracing.PARENT] < 0
                and s[tracing.NAME] in ("lambertq.quantile", "lambertq.numeric_quantile")):
            by_class[workloads.CLASS_OF[s[tracing.NOTE]]].append(
                (s[tracing.END] - s[tracing.START]) / 1e3)
    print("| class | calls | median µs | tail |")
    print("|---|---|---|---|")
    for cls, us in by_class.items():
        p = tail_percentile(len(us))
        tail = "p%g %.0f µs" % (p, np.percentile(us, p)) if p else "-"
        print("| %s | %d | %.0f | %s |" % (cls, len(us), statistics.median(us), tail))


def median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def workers_against_serial():
    print("\n| family | n | serial s | workers=2 s |")
    print("|---|---|---|---|")
    for family, params, n in (("weibull2", {"a": 1.0, "b": 1.0}, 1_000_000),
                              ("lai_weibull3", {"a": 1.0, "b": 1.0, "c": 1.0}, 1_000_000),
                              ("xie_lai3", {"a": 1.0, "b": 2.0, "c": 1.0}, 100_000)):
        spec = lambertq.validate(family, **params)
        serial = median_time(lambda: lambertq.sample(spec, n, 7))
        two = median_time(lambda: lambertq.sample(spec, n, 7, workers=2))
        print("| %s | %d | %.3f | %.3f |" % (family, n, serial, two))


def cli_runs(env):
    import subprocess

    cmd = [sys.executable, "-m", "lambertq.cli", "sample", "--family", "weibull2",
           "--param", "a=1", "--param", "b=1", "--n", "1000000", "--seed", "7"]
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
        walls.append(time.perf_counter() - t0)
    print("\n`lambertq sample --n 1000000` (CSV), three runs: %s s"
          % ", ".join("%.2f" % w for w in walls))


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    scalar_latencies(os.path.join(ROOT, "perfbench", "out", "trace-scalar-quantile.json"))
    workers_against_serial()
    imports = tracing.import_times(sys.executable, ROOT, env)
    print("\n`-X importtime`, median of three: lambertq %.3f s, of which scipy.special %.3f s"
          % (imports["lambertq"], imports["scipy.special"]))
    cli_runs(env)


if __name__ == "__main__":
    main()

"""Run one workload of the lambertq benchmark and print its metrics.

    python3 perfbench/run.py --workload bulk-sample --seed 1 --seconds 20 --trace 0

Run it from the root of a lambertq checkout: it imports the library from
./src and starts the ``lambertq`` command from there, so it measures the
source beside it and nothing installed.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, measured with nothing
wrapped; with --trace 1 they are the per-layer ones from a traced run,
whose spans go to perfbench/out/.  README.md says what each one means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("bulk-sample", "scalar-quantile", "cli-export")

END_TO_END_UNITS = {
    "setup_s": "s",
    "elementary_quantiles_per_s": "quantiles/s",
    "lambertw_quantiles_per_s": "quantiles/s",
    "numeric_quantiles_per_s": "quantiles/s",
    "errata_s": "s",
}
PER_LAYER_UNITS = {
    "sampling.uniforms_ns_per_draw": "ns",
    "sampling.csv_ns_per_value": "ns",
    "sampling.json_ns_per_value": "ns",
    "sampling.output_bytes_per_value": "bytes",
    "lambertw.ns_per_point": "ns",
    "lambertw.iterations_per_point": "count",
    "lambertw.us_per_call": "us",
    "lambertw.max_identity_residual": "relative",
    "normal.ns_per_point": "ns",
    "families.formula_ns_per_point.elementary": "ns",
    "families.formula_ns_per_point.lambertw": "ns",
    "families.scalar_overhead_us": "us",
    "families.validate_us": "us",
    "invert.cdf_passes_per_call": "count",
    "invert.cdf_points_per_quantile": "count",
    "invert.self_us_per_call": "us",
    "invert.max_residual": "probability",
    "verify.ns_per_grid_point": "ns",
    "verify.us_per_spec": "us",
    "verify.report_serialise_ms": "ms",
    "cli.import_lambertq_s": "s",
    "cli.import_scipy_special_s": "s",
    "cli.cold_start_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPEATS = 9      # fresh interpreters per run; setup_s is their median
VALIDATE_REPEATS = 20  # passes over every reference set when timing validate()
COLD_START_REPEATS = 3
# What a fresh interpreter does before its first quantile: import the
# library and validate the workload's parameter sets.
SETUP_CODE = (
    "import json, sys\n"
    "import lambertq\n"
    "for family, params in json.loads(sys.argv[1]):\n"
    "    lambertq.validate(family, **params)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one workload of the lambertq benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def wall(cmd, root, env):
    """Seconds one subprocess takes, start to exit; raises if it fails."""
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=root, env=env, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def setup_seconds(specs, root, env, calibration):
    """Median seconds, at the reference speed, for a fresh interpreter to
    import lambertq and validate specs."""
    import workloads

    cmd = [sys.executable, "-c", SETUP_CODE, json.dumps(specs)]
    wall(cmd, root, env)  # the first import in a fresh checkout compiles bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        cal = calibration.now()
        times.append(workloads.at_reference_speed(wall(cmd, root, env), cal,
                                                  workloads.CliExport.calibration_weights))
    return statistics.median(times)


def measure(route, seconds, calibration, tracer=None):
    """Whole rounds until the run has lasted the given seconds (at least one)."""
    import workloads

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rnd = workloads.Round(calibration)
        if tracer is not None:
            tracer.round = len(rounds)
        route.run_round(len(rounds), rnd, tracer)
        rounds.append(rnd)
    return rounds


def op_seconds(rnd, weights):
    """The round's operation time at the reference speed."""
    import workloads

    return sum(workloads.at_reference_speed(op[1], op[3], weights) for op in rnd.ops)


def traced_run(route, routes, seconds, root, env, out_dir, calibration):
    """Per-layer metrics: half the run untraced, half traced, then one traced round
    of each other route so that every layer's metric comes from its own route."""
    import lambertq
    import tracing
    import workloads

    plain = measure(route, seconds / 2.0, calibration)
    tracer = tracing.Tracer(tracing.targets(lambertq), out_dir)
    tracer.install()
    tracer.route = "setup"
    for _ in range(VALIDATE_REPEATS):
        for _, family, params in workloads.reference_sets():
            lambertq.validate(family, **params)
    tracer.route = route.name
    rounds = measure(route, seconds / 2.0, calibration, tracer)
    probes = []
    for other in routes:
        if other.name != route.name:
            tracer.route, tracer.round = other.name, 0
            probes.append(workloads.Round(calibration))
            other.run_round(0, probes[-1], tracer)
    tracer.uninstall()

    imports = tracing.import_times(sys.executable, root, env)
    cold = [wall([sys.executable, "-m", "lambertq.cli", "list"], root, env)
            for _ in range(COLD_START_REPEATS)]
    tracer.counters.update({
        "invert.max_residual": max(r.numeric_residual for r in rounds + probes),
        "cli.import_lambertq_s": imports["lambertq"],
        "cli.import_scipy_special_s": imports["scipy.special"],
        "cli.cold_start_s": statistics.median(cold),
        "trace.overhead_ratio":
            statistics.median(op_seconds(r, route.calibration_weights) for r in rounds)
            / statistics.median(op_seconds(r, route.calibration_weights) for r in plain),
    })
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, workloads.CLASS_OF)
    tracer.write(os.path.join(out_dir, "trace-%s.json" % route.name),
                 {"workload": route.name, "metrics": metrics, "counters": tracer.counters})
    return plain + rounds, probes, metrics


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lambertq", "__init__.py")):
        print("run.py: %s holds no src/lambertq; run from the root of a lambertq checkout"
              % root, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import lambertq
    if not os.path.abspath(lambertq.__file__).startswith(src + os.sep):
        print("run.py: imported lambertq from %s, not %s" % (lambertq.__file__, src),
              file=sys.stderr)
        return 2
    import workloads

    env = dict(os.environ, PYTHONPATH=src)
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    workloads.check_classes()
    routes = [workloads.BulkSample(args.seed), workloads.ScalarQuantile(args.seed),
              workloads.CliExport(args.seed, root, env)]
    route = routes[WORKLOADS.index(args.workload)]

    calibration = workloads.Calibration()
    probes = []
    if args.trace:
        rounds, probes, values = traced_run(route, routes, args.seconds, root, env, out_dir,
                                            calibration)
        units = PER_LAYER_UNITS
    else:
        setup = setup_seconds(route.setup_specs(), root, env, calibration)
        rounds = measure(route, args.seconds, calibration)
        values = dict(workloads.end_to_end(rounds, route.calibration_weights), setup_s=setup)
        units = END_TO_END_UNITS

    unexpected = [p for r in rounds + probes for p in r.unexpected]
    for p in unexpected[:20]:
        print("problem: %s" % p, file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=len(rounds), calibration_s=calibration.samples, problems=unexpected)
    with open(os.path.join(out_dir, "result-%s-trace%d.json" % (args.workload, args.trace)),
              "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

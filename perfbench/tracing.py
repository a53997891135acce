"""Span tracing for the benchmark's traced run, and the per-layer metrics.

The tracer replaces, from outside the library, the public functions each
lambertq module calls in the next (the ``w_principal`` that ``families``
calls, the ``cdf`` that ``invert`` calls, ...) with wrappers that record a
span: name, start, end, parent span, operation id.  Spans stay in memory
and are written out when the run ends.  Nothing is wrapped in an untraced
run, so end-to-end metrics never pay for tracing.

Run as a script, this file is the traced stand-in for the ``lambertq``
command:  python3 perfbench/tracing.py SPANS_OUT <lambertq arguments>
runs ``lambertq.cli.main`` with the CLI's layers wrapped and writes the
spans to SPANS_OUT.
"""

import contextlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter_ns

# A span: [name, start_ns, end_ns, parent index or -1, op id, route, round, points, note]
NAME, START, END, PARENT, OP, ROUTE, ROUND, POINTS, NOTE = range(9)


def _size(i):
    """Points a call handles: the length of positional argument i (1 for a scalar)."""
    def size(args, kwargs):
        try:
            return len(args[i])
        except TypeError:
            return 1
    return size


def _batch_size(args, kwargs):
    return int(args[0].values.size)


def _sample_size(args, kwargs):
    return int(args[1])


def _family(args, kwargs, out):
    return args[0].family


def _w_note(args, kwargs, out):
    """Iterations and worst identity residual of one W evaluation."""
    import numpy as np
    if out is None:
        return None
    return [int(np.sum(out.iterations)), float(np.max(out.residual))]


def targets(lambertq):
    """(module, attribute, span name, points, note) for each call between layers."""
    fam, smp, inv, ver = lambertq.families, lambertq.sampling, lambertq.invert, lambertq.verify
    closed_sets = sum(len(lambertq.reference_params(f)) for f in lambertq.family_ids()
                      if lambertq.family_info(f).quantile is not None)

    def grid_points(args, kwargs):
        """Grid points times closed-form reference sets: the CDF evaluations of a report."""
        return len(args[0] if args else lambertq.default_grid()) * closed_sets

    return [
        # the benchmark's own calls into the library
        (lambertq, "sample", "lambertq.sample", _sample_size, None),
        (lambertq, "quantile", "lambertq.quantile", _size(1), _family),
        (lambertq, "numeric_quantile", "lambertq.numeric_quantile", _size(1), _family),
        (lambertq, "errata_report", "lambertq.errata_report", grid_points, None),
        (lambertq, "verify_family", "lambertq.verify_family", None, None),
        (lambertq, "validate", "lambertq.validate", None, None),
        # sampling -> stream, formulas, inverter
        (smp, "counter_uniforms", "sampling.counter_uniforms", lambda a, k: int(a[2]), None),
        (smp, "quantile_values", "families.quantile_values", _size(1), _family),
        (smp, "invert_cdf", "invert.invert_cdf", _size(1), _family),
        # invert -> families
        (inv, "invert_cdf", "invert.invert_cdf", _size(1), _family),
        (inv, "cdf", "families.cdf", _size(1), None),
        # families -> kernels
        (fam, "w_principal", "lambertw.w_principal", _size(0), _w_note),
        (fam, "w_principal_from_log", "lambertw.w_principal_from_log", _size(0), None),
        (fam, "std_normal_quantile", "normal.std_normal_quantile", _size(0), None),
        (fam, "std_normal_cdf", "normal.std_normal_cdf", _size(0), None),
        # verify -> families
        (ver, "validate", "families.validate", None, None),
        (ver, "cdf", "families.cdf", _size(1), None),
    ]


def cli_targets(lambertq):
    """The layers the ``lambertq`` command calls, for the traced CLI."""
    cli = lambertq.cli
    return [t for t in targets(lambertq) if t[0] is not lambertq] + [
        (cli, "sample", "lambertq.sample", _sample_size, None),
        (cli, "batch_to_csv", "sampling.batch_to_csv", _batch_size, None),
        (cli, "batch_to_json", "sampling.batch_to_json", _batch_size, None),
        (cli, "errata_report", "lambertq.errata_report", None, None),
        (cli, "report_to_json", "verify.report_to_json", _size(0), None),
        (cli, "report_to_csv", "verify.report_to_csv", _size(0), None),
    ]


class Tracer:
    """Records spans in memory around the wrapped functions."""

    def __init__(self, targets, out_dir):
        self.targets = targets
        self.out_dir = out_dir
        self.spans = []
        self.counters = {}
        self.route = ""
        self.round = 0
        self._stack = []
        self._ops = 0
        self._saved = []

    def _wrap(self, fn, name, size, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._ops += 1
            span = [name, 0, 0, parent, self._ops, self.route, self.round,
                    size(args, kwargs) if size else 0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            out = None
            span[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
                if note is not None:
                    span[NOTE] = note(args, kwargs, out)  # out is None if fn raised
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, size, note in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, size, note))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def paused(self):
        """Run a block (the benchmark's own checks) with every wrapper removed."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def child_spans_path(self):
        return os.path.join(self.out_dir, "child-spans.json")

    def adopt_child(self, path, t0, seconds):
        """Record a CLI invocation as a span and hang its process's spans under it."""
        self._ops += 1
        start = int(t0 * 1e9)
        parent = len(self.spans)
        self.spans.append(["cli.invocation", start, start + int(seconds * 1e9), -1,
                           self._ops, self.route, self.round, 0, None])
        try:
            with open(path) as f:
                child = json.load(f)
            os.remove(path)
        except FileNotFoundError:
            return
        for span in child:
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + parent + 1
            span[OP] = self._ops
            span[ROUTE] = self.route
            span[ROUND] = self.round
            self.spans.append(span)

    def write(self, path, extra):
        """Write every span and the per-name self times."""
        doc = dict(extra, fields=["name", "start_ns", "end_ns", "parent", "op", "route",
                                  "round", "points", "note"],
                   self_times=self_times(self.spans), spans=self.spans)
        with open(path, "w") as f:
            json.dump(doc, f)


def self_ns(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_times(spans):
    """name -> {calls, total_ns, self_ns}."""
    own = self_ns(spans)
    table = {}
    for s, mine in zip(spans, own):
        row = table.setdefault(s[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += s[END] - s[START]
        row["self_ns"] += mine
    return table


def layer_metrics(spans, counters, classes):
    """The per-layer metrics, each from the spans of the route it belongs to.

    classes maps family id -> class; counters holds the benchmark's own
    tallies (bytes written, worst residuals, import and start-up times).
    Counts come from round 0 alone, whose inputs depend on the seed only,
    so that they repeat exactly.
    """
    own = self_ns(spans)

    def pick(route, *names, first_round=False):
        return [(s, own[i]) for i, s in enumerate(spans)
                if s[ROUTE] == route and s[NAME] in names
                and not (first_round and s[ROUND])]

    def per(rows, unit_ns, by="points", use_self=False):
        ns = sum(mine if use_self else s[END] - s[START] for s, mine in rows)
        den = sum(s[POINTS] for s, _ in rows) if by == "points" else len(rows)
        return ns / unit_ns / den if den else float("nan")

    bulk, scalar, cli = "bulk-sample", "scalar-quantile", "cli-export"
    w_names = ("lambertw.w_principal", "lambertw.w_principal_from_log")
    w0_bulk = pick(bulk, "lambertw.w_principal", first_round=True)
    formulas = pick(bulk, "families.quantile_values")
    inverts = pick(bulk, "invert.invert_cdf", first_round=True)
    cdf_in_inverts = [(s, m) for s, m in pick(bulk, "families.cdf", first_round=True)
                      if spans[s[PARENT]][NAME] == "invert.invert_cdf"]
    closed = pick(scalar, "lambertq.quantile")
    return {
        "sampling.uniforms_ns_per_draw": per(pick(bulk, "sampling.counter_uniforms"), 1),
        "sampling.csv_ns_per_value": per(pick(cli, "sampling.batch_to_csv"), 1),
        "sampling.json_ns_per_value": per(pick(cli, "sampling.batch_to_json"), 1),
        "sampling.output_bytes_per_value":
            counters["cli.sample_bytes"] / counters["cli.sample_values"],
        "lambertw.ns_per_point": per(pick(bulk, *w_names), 1),
        "lambertw.iterations_per_point":
            sum(s[NOTE][0] for s, _ in w0_bulk) / sum(s[POINTS] for s, _ in w0_bulk),
        "lambertw.us_per_call": per(pick(scalar, *w_names), 1e3, by="calls"),
        "lambertw.max_identity_residual":
            max(s[NOTE][1] for s in spans if s[NAME] == "lambertw.w_principal" and s[NOTE]),
        "normal.ns_per_point": per(pick(bulk, "normal.std_normal_quantile",
                                        "normal.std_normal_cdf"), 1),
        "families.formula_ns_per_point.elementary":
            per([r for r in formulas if classes.get(r[0][NOTE]) == "elementary"], 1, use_self=True),
        "families.formula_ns_per_point.lambertw":
            per([r for r in formulas if classes.get(r[0][NOTE]) == "lambertw"], 1, use_self=True),
        "families.scalar_overhead_us": per(closed, 1e3, by="calls", use_self=True),
        "families.validate_us": per(pick("setup", "lambertq.validate"), 1e3, by="calls"),
        "invert.cdf_passes_per_call": len(cdf_in_inverts) / len(inverts),
        "invert.cdf_points_per_quantile":
            sum(s[POINTS] for s, _ in cdf_in_inverts) / sum(s[POINTS] for s, _ in inverts),
        "invert.self_us_per_call":
            per(pick(scalar, "invert.invert_cdf"), 1e3, by="calls", use_self=True),
        "invert.max_residual": counters["invert.max_residual"],
        "verify.ns_per_grid_point": per(pick(bulk, "lambertq.errata_report"), 1),
        "verify.us_per_spec": per(pick(scalar, "lambertq.verify_family"), 1e3, by="calls"),
        "verify.report_serialise_ms":
            per(pick(cli, "verify.report_to_json", "verify.report_to_csv"), 1e6, by="calls"),
        "cli.import_lambertq_s": counters["cli.import_lambertq_s"],
        "cli.import_scipy_special_s": counters["cli.import_scipy_special_s"],
        "cli.cold_start_s": counters["cli.cold_start_s"],
        "trace.overhead_ratio": counters["trace.overhead_ratio"],
    }


def import_times(python, root, env, repeats=3):
    """Median cumulative `-X importtime` seconds of lambertq and scipy.special."""
    found = {"lambertq": [], "scipy.special": []}
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import lambertq"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) for name, v in found.items()}


def _traced_cli(spans_out, argv):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import lambertq
    import lambertq.cli

    tracer = Tracer(cli_targets(lambertq), os.path.dirname(spans_out))
    tracer.install()
    try:
        code = lambertq.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_out, "w") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))

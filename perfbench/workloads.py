"""The benchmark's inputs and its three routes to quantiles.

Each route runs in rounds.  A round is the same fixed list of operations
every time; only the seeds derived from the run seed and the round number
change.  Every run therefore attempts whole rounds, and the share of
operations that fail is the same in every run.  Operations are timed one by
one with tracing off; their outputs are checked after the clock stops.
"""

import contextlib
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import lambertq
import checks

# Family classes by family id: how the quantile is computed.
ELEMENTARY = (
    "weibull2", "gompertz2", "trunc_log_weibull", "flexible_weibull", "pham",
    "exp_weibull", "mod_weibull_ext", "exp_inv_weibull", "gen_weibull",
    "ext_weibull", "gen_power_weibull", "odd_weibull", "kies4", "exp_kum_weibull5",
)
LAMBERTW = (
    "lai_weibull3", "inv_mod_weibull", "gen_mod_weibull", "shifted_mod_weibull",
    "kum_mod_weibull", "mod_log_logistic", "gompertz_makeham", "mod_power_lomax",
    "mod_pareto4", "mod_lognormal",
)
NUMERIC = ("xie_lai3", "additive_weibull", "nadarajah_kotz", "phani5")
CLASSES = ("elementary", "lambertw", "numeric")
CLASS_OF = dict(
    [(f, "elementary") for f in ELEMENTARY]
    + [(f, "lambertw") for f in LAMBERTW]
    + [(f, "numeric") for f in NUMERIC]
)


def set_key(family, params):
    return (family, tuple(sorted((k, float(v)) for k, v in params.items())))


PHANI5_STEEP = set_key("phani5", {"a": 0.5, "b": 2.0, "c": 2.0, "d": 0.5, "e": 1.5})
EXP_WEIBULL_3 = set_key("exp_weibull", {"a": 2.0, "b": 0.8, "c": 0.5})
EXP_INV_WEIBULL_2 = set_key("exp_inv_weibull", {"a": 2.0, "b": 0.5, "c": 2.0})
GEN_WEIBULL_3 = set_key("gen_weibull", {"a": 2.0, "b": 0.7, "c": 2.0})
EKW5_2 = set_key("exp_kum_weibull5", {"a": 2.0, "b": 0.5, "c": 1.5, "d": 1.0, "e": 2.0})
EKW5_3 = set_key("exp_kum_weibull5", {"a": 0.7, "b": 2.0, "c": 0.5, "d": 2.0, "e": 0.8})
KUM_MOD_2 = set_key("kum_mod_weibull", {"a": 0.5, "b": 2.0, "c": 2.0, "d": 0.5, "mu": 0.5})
KUM_MOD_3 = set_key("kum_mod_weibull", {"a": 2.0, "b": 0.7, "c": 0.5, "d": 2.0, "mu": 2.0})

# Sets on which a quantile fails for some sampler uniforms only, so that
# sample() of them fails on some seeds: the bulk and CLI routes leave them
# out, and the scalar route gives them only its fixed probabilities.
# phani5: the numeric residual misses 1e-12 near its infinite density at
# t = a.  The others: the closed form misses the roundtrip tolerance at
# scattered u below 1.4e-7 or above 1 - 1.9e-7.
SEED_DEPENDENT_FAULTS = frozenset(
    [PHANI5_STEEP, EXP_WEIBULL_3, EXP_INV_WEIBULL_2, GEN_WEIBULL_3, EKW5_2, EKW5_3, KUM_MOD_2])

# Probabilities every scalar call sees: the sampler's smallest uniform 2^-54,
# its largest (the double just below 1), and deep-tail points where the
# faults above show on every run.
LOW_TAIL, HIGH_TAIL = 3e-9, 1 - 3e-9
PROBS = (2.0 ** -54, 1e-12, LOW_TAIL, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
         0.99, 0.999, 1 - 1e-6, HIGH_TAIL, 1 - 1e-12, 1 - 2.0 ** -53)
SCALAR_SEEDED = 5  # seeded probabilities per set and round, on top of PROBS

# Operations that fail every time on today's library, whatever the seed:
# kernel input names on the bulk route, (set key, u) on the scalar route.
KNOWN_FAULTS = frozenset(
    ["w_lower_tiny"]
    + [(PHANI5_STEEP, u) for u in (LOW_TAIL, 1e-6)]
    + [(key, LOW_TAIL) for key in (EXP_WEIBULL_3, EKW5_3, KUM_MOD_2)]
    + [(key, u) for key in (EXP_INV_WEIBULL_2, EKW5_2) for u in (HIGH_TAIL, 1 - 1e-12, 1 - 2.0 ** -53)]
    + [(KUM_MOD_3, u) for u in (1 - 1e-12, 1 - 2.0 ** -53)]
)

# Draws per sample() call on the bulk route, per class.
BULK_N = {"elementary": 200_000, "lambertw": 50_000, "numeric": 5_000}
BULK_ERRATA_GRID = 9_999

# (class, family, params, format, n) of each `lambertq sample` call on the CLI route.
CLI_SAMPLES = (
    ("elementary", "weibull2", {"a": 0.5, "b": 2.0}, "csv", 100_000),
    ("elementary", "ext_weibull", {"a": 3.0, "b": 0.5, "c": 0.8}, "json", 100_000),
    ("lambertw", "lai_weibull3", {"a": 1.0, "b": 1.0, "c": 1.0}, "csv", 100_000),
    ("lambertw", "mod_lognormal", {"a": 0.5, "b": 2.0, "c": 0.5, "d": 1.0, "mu": 0.5}, "json", 100_000),
    ("numeric", "xie_lai3", {"a": 1.0, "b": 2.0, "c": 1.0}, "csv", 20_000),
    ("numeric", "additive_weibull", {"a": 1.0, "b": 2.0, "c": 1.0, "d": 0.5}, "json", 20_000),
)


# Operation times are quoted at a reference machine speed.  The host this
# benchmark was built on shares its cores with other tenants, and its speed
# swings by up to 2x over seconds to minutes, differently for interpreter-
# bound and for array-bound code.  So two fixed pieces of work, independent
# of lambertq, are timed at most CALIBRATION_INTERVAL_S apart: NumPy passes
# over preallocated arrays, and pure-Python splitmix64 with small NumPy
# calls.  Each operation's wall time is multiplied by (reference / measured)
# of the part most like its route's work, or of both, weighted.
CALIBRATION_INTERVAL_S = 0.25
CALIBRATION_REFERENCE_S = {"numpy": 0.008, "python": 0.003}  # on an unloaded 2-vCPU guest


class Calibration:
    """How fast the machine runs just now: seconds of each calibration part."""

    def __init__(self):
        self.samples = []
        self._taken = -math.inf
        self._a = np.linspace(0.01, 0.99, 200_000)
        self._b = np.empty_like(self._a)
        self._c = np.empty_like(self._a)
        self._small = np.linspace(0.01, 0.99, 8)

    def now(self):
        """The latest {part: seconds}, retaken when older than the interval."""
        if time.perf_counter() - self._taken >= CALIBRATION_INTERVAL_S:
            a, b, c = self._a, self._b, self._c
            t0 = time.perf_counter()
            for _ in range(3):
                np.negative(a, out=b)
                np.log1p(b, out=c)
                np.exp(a, out=c)
                b[:] = a[::-1]
                b.sort()
            t1 = time.perf_counter()
            checks.splitmix64(12345, 6000)
            for _ in range(500):
                np.log1p(-self._small)
                np.exp(self._small)
            self._taken = time.perf_counter()
            self.samples.append({"numpy": t1 - t0, "python": self._taken - t1})
        return self.samples[-1]


def at_reference_speed(seconds, calibration, weights):
    """seconds times the product over parts of (reference / measured) ** weight."""
    for part, weight in weights.items():
        seconds *= (CALIBRATION_REFERENCE_S[part] / calibration[part]) ** weight
    return seconds


class Round:
    """What one round did: each operation's kind, seconds, checked values and calibration.

    Rounds of a route run the same operations in the same order, so the
    i-th operation of every round is the same call on fresh seeds.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.ops = []                 # (kind, seconds, values that passed, calibration)
        self.failed = 0
        self.unexpected = []          # failures and check problems no known fault explains
        self.numeric_residual = 0.0   # worst |F(t) - u| among passing numeric quantiles

    @property
    def attempted(self):
        return len(self.ops)

    def record(self, kind, seconds, values, problems, known=False, label=""):
        """Count one operation of a kind: a family class, "errata" or "kernel"."""
        if problems:
            self.failed += 1
            if not known:
                self.unexpected.extend("%s: %s" % (label, p) for p in problems)
            values = 0
        self.ops.append((kind, seconds, values, self.calibration.now()))


def end_to_end(rounds, weights):
    """Per-class quantiles per second and errata seconds of a typical round.

    Each operation counts with the median over the rounds of its time at
    the reference speed, and with its median number of checked values.
    """
    seconds = dict.fromkeys(CLASSES + ("errata",), 0.0)
    values = dict.fromkeys(CLASSES, 0.0)
    for i, (kind, _, _, _) in enumerate(rounds[0].ops):
        if kind in seconds:
            seconds[kind] += statistics.median(
                at_reference_speed(r.ops[i][1], r.ops[i][3], weights) for r in rounds)
        if kind in values:
            values[kind] += statistics.median(r.ops[i][2] for r in rounds)
    out = {"%s_quantiles_per_s" % c: values[c] / seconds[c] for c in CLASSES}
    out["errata_s"] = seconds["errata"]
    return out


def registry():
    """Family id -> (has a closed form, formula corrected), from the library's registry."""
    out = {}
    for name in lambertq.family_ids():
        fam = lambertq.family_info(name)
        out[name] = (fam.quantile is not None, fam.corrected)
    return out


def check_classes():
    """The class table must cover the registry, and numeric-only must mean no closed form."""
    reg = registry()
    if set(reg) != set(CLASS_OF):
        raise RuntimeError("family classes do not match the registry: %s"
                           % sorted(set(reg) ^ set(CLASS_OF)))
    for name, (closed, _) in reg.items():
        if closed != (CLASS_OF[name] != "numeric"):
            raise RuntimeError("%s: class %s but closed form %s" % (name, CLASS_OF[name], closed))


def reference_sets(exclude=()):
    """(class, family, params) for every reference set, in registry order."""
    return [(CLASS_OF[f], f, p)
            for f in lambertq.family_ids()
            for p in lambertq.reference_params(f)
            if set_key(f, p) not in exclude]


def _failure(exc):
    return ["%s: %s" % (type(exc).__name__, exc)]


def _exit_failure(code, stderr):
    return ["exit %d: %s" % (code, stderr.decode(errors="replace")[-300:])]


def _tol(cls):
    return checks.NUMERIC_TOL if cls == "numeric" else checks.CLOSED_FORM_TOL


def _quiet(tracer):
    """Checks run with the tracer's wrappers removed, so they add no spans."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _cdf(spec):
    return lambda t: lambertq.cdf(spec, t)


def _residual(spec, u, x):
    """Worst |F(x) - u| of quantiles that passed their checks."""
    return float(np.max(np.abs(lambertq.cdf(spec, x) - u)))


def _errata_rows(entries):
    return [(e.family, e.verdict.value, e.max_roundtrip_error_printed) for e in entries]


class BulkSample:
    """In-process sample() over every reference set, plus errata_report on a large grid."""

    name = "bulk-sample"
    calibration_weights = {"numpy": 1.0}  # array passes dominate

    def __init__(self, seed):
        self.seed = seed
        self.sets = [(c, f, p, lambertq.validate(f, **p))
                     for c, f, p in reference_sets(exclude=SEED_DEPENDENT_FAULTS)]
        self.registry = registry()
        self.grid = lambertq.default_grid(BULK_ERRATA_GRID)
        self.kernel_inputs = checks.kernel_inputs()

    def setup_specs(self):
        return [(f, p) for _, f, p, _ in self.sets]

    def run_round(self, r, rnd, tracer=None):
        for ci, cls in enumerate(CLASSES):
            n = BULK_N[cls]
            s = checks.derive_seed(self.seed, r, ci)
            u = order = None
            for c, family, params, spec in self.sets:
                if c != cls:
                    continue
                t0 = time.perf_counter()
                try:
                    x = lambertq.sample(spec, n, s).values
                    problems = []
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    problems = _failure(exc)
                dt = time.perf_counter() - t0
                with _quiet(tracer):
                    if u is None:
                        u = checks.uniforms(s, n)
                        order = np.argsort(u, kind="stable")
                    if not problems:
                        problems = checks.quantile_problems(u, x, _cdf(spec), spec.support,
                                                            _tol(cls), order)
                        if family == "weibull2":
                            problems += checks.weibull2_problems(u, x, params["a"], params["b"])
                        if cls == "numeric" and not problems:
                            rnd.numeric_residual = max(rnd.numeric_residual,
                                                       _residual(spec, u, x))
                rnd.record(cls, dt, n, problems, label="sample %s %r" % (family, params))

        t0 = time.perf_counter()
        entries = lambertq.errata_report(self.grid)
        dt = time.perf_counter() - t0
        rnd.record("errata", dt, 0, checks.errata_problems(_errata_rows(entries), self.registry),
                   label="errata_report")

        with _quiet(tracer):
            self._stream_checks(r, rnd)
            self._kernel_checks(rnd)

    def _kernel_checks(self, rnd):
        """Lambert W and the normal quantile against SciPy, one operation per input set."""
        for name, (kernel, branch, x) in self.kernel_inputs.items():
            try:
                out = getattr(lambertq, kernel)(x)
                if branch is None:
                    problems = checks.normal_quantile_problems(x, out)
                else:
                    problems = checks.lambertw_problems(x, out.value, branch)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                problems = _failure(exc)
            rnd.record("kernel", 0.0, 0, problems, known=name in KNOWN_FAULTS,
                       label="%s on %s inputs" % (kernel, name))

    def _stream_checks(self, r, rnd):
        """Library uniforms equal the benchmark's splitmix64, and two workers equal one."""
        s = checks.derive_seed(self.seed, r, 0)
        n = BULK_N["elementary"]
        rnd.unexpected += checks.identical_problems(
            lambertq.counter_uniforms(s, 0, n), checks.uniforms(s, n), "counter_uniforms")
        for ci, cls in enumerate(CLASSES):
            members = [(f, spec) for c, f, _, spec in self.sets if c == cls]
            family, spec = members[r % len(members)]
            s = checks.derive_seed(self.seed, r, ci)
            rnd.unexpected += checks.identical_problems(
                lambertq.sample(spec, BULK_N[cls], s, workers=2).values,
                lambertq.sample(spec, BULK_N[cls], s).values,
                "sample(workers=2) of %s" % family)


class ScalarQuantile:
    """One quantile() or numeric_quantile() call per probability, as `lambertq quantile` picks."""

    name = "scalar-quantile"
    calibration_weights = {"python": 1.0}  # the interpreter dominates

    def __init__(self, seed):
        self.seed = seed
        self.sets = [(c, f, p, lambertq.validate(f, **p)) for c, f, p in reference_sets()]
        self.registry = registry()

    def setup_specs(self):
        return [(f, p) for _, f, p, _ in self.sets]

    def run_round(self, r, rnd, tracer=None):
        seeded = checks.uniforms(checks.derive_seed(self.seed, r), SCALAR_SEEDED)
        for cls, family, params, spec in self.sets:
            key = set_key(family, params)
            probs = list(PROBS) + ([] if key in SEED_DEPENDENT_FAULTS else seeded.tolist())
            call = lambertq.numeric_quantile if cls == "numeric" else lambertq.quantile
            ts, times, errors = [], [], []
            for u in probs:
                t0 = time.perf_counter()
                try:
                    t = call(spec, u).t
                    err = None
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    t, err = math.nan, exc
                times.append(time.perf_counter() - t0)
                ts.append(t)
                errors.append(err)
            with _quiet(tracer):
                u = np.array(probs)
                x = np.array(ts, dtype=float)
                bad = checks.bad_quantiles(u, x, _cdf(spec), spec.support, _tol(cls))
                for ui, err in enumerate(errors):
                    if err is not None:
                        problems = _failure(err)
                    elif bad[ui]:
                        problems = ["u=%r gave t=%r" % (probs[ui], ts[ui])]
                    else:
                        problems = []
                    rnd.record(cls, times[ui], 1, problems, known=(key, probs[ui]) in KNOWN_FAULTS,
                               label="quantile %s %r" % (family, params))
                ok = ~bad
                rnd.unexpected += checks.order_problems(u[ok], x[ok])
                if family == "weibull2":
                    rnd.unexpected += checks.weibull2_problems(u[ok], x[ok], params["a"], params["b"])
                if cls == "numeric" and ok.any():
                    rnd.numeric_residual = max(rnd.numeric_residual,
                                               _residual(spec, u[ok], x[ok]))

        t0 = time.perf_counter()
        entries = lambertq.errata_report()
        dt = time.perf_counter() - t0
        rnd.record("errata", dt, 0, checks.errata_problems(_errata_rows(entries), self.registry),
                   label="errata_report")
        for _, family, params, spec in self.sets:
            t0 = time.perf_counter()
            e = lambertq.verify_family(spec)
            dt = time.perf_counter() - t0
            rnd.record("errata", dt, 0, checks.per_set_verdict_problems(
                e.family, e.verdict.value, e.max_roundtrip_error_printed, *self.registry[family]),
                label="verify_family %s %r" % (family, params))


class CliExport:
    """Subprocess `lambertq sample` in CSV and JSON, and `lambertq errata` in both formats."""

    name = "cli-export"
    # start-up, imports and serialisation mix interpreter and array work, yet
    # the numpy part alone tracked them best in trials (quartile spread of
    # ten runs 4-11 % against 9-16 % for an even mix); a fresh interpreter's
    # set-up is scaled the same way on every route
    calibration_weights = {"numpy": 1.0}

    def __init__(self, seed, root, env):
        self.seed = seed
        self.root = root
        self.env = env
        self.samples = [(c, f, p, fmt, n, lambertq.validate(f, **p))
                        for c, f, p, fmt, n in CLI_SAMPLES]
        self.registry = registry()

    def setup_specs(self):
        return [(f, p) for _, f, p, _, _, _ in self.samples]

    def _invoke(self, args, tracer):
        """Run one CLI command; returns (wall seconds, exit code, stdout, stderr)."""
        if tracer is None:
            cmd = [sys.executable, "-m", "lambertq.cli"] + args
        else:
            spans = tracer.child_spans_path()
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "tracing.py"),
                   spans] + args
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.adopt_child(spans, t0, dt)
        return dt, proc.returncode, proc.stdout, proc.stderr

    def run_round(self, r, rnd, tracer=None):
        for i, (cls, family, params, fmt, n, spec) in enumerate(self.samples):
            s = checks.derive_seed(self.seed, r, i)
            args = ["sample", "--family", family, "--n", str(n), "--seed", str(s),
                    "--format", fmt]
            for k, v in params.items():
                args += ["--param", "%s=%r" % (k, v)]
            dt, code, out, err = self._invoke(args, tracer)
            with _quiet(tracer):
                problems = self._sample_problems(code, out, err, fmt, spec, cls, n, s)
                if tracer is not None:
                    tracer.add("cli.sample_bytes", len(out))
                    tracer.add("cli.sample_values", n)
            rnd.record(cls, dt, n, problems, label="lambertq sample %s %s" % (family, fmt))

        for fmt in ("json", "csv"):
            dt, code, out, err = self._invoke(["errata", "--format", fmt], tracer)
            with _quiet(tracer):
                problems = self._errata_problems(code, out, err, fmt)
            rnd.record("errata", dt, 0, problems, label="lambertq errata --format %s" % fmt)

    def _errata_problems(self, code, out, err, fmt):
        if code != 0:
            return _exit_failure(code, err)
        try:
            rows = checks.parse_errata(out.decode(), fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return _failure(exc)
        return checks.errata_problems(rows, self.registry)

    def _sample_problems(self, code, out, err, fmt, spec, cls, n, s):
        if code != 0:
            return _exit_failure(code, err)
        text = out.decode()
        try:
            x = checks.parse_csv_values(text) if fmt == "csv" else checks.parse_json_values(text)
        except (ValueError, KeyError) as exc:
            return _failure(exc)
        u = checks.uniforms(s, n)
        problems = checks.quantile_problems(u, x, _cdf(spec), spec.support, _tol(cls))
        return problems + checks.identical_problems(
            x, lambertq.sample(spec, n, s).values, "CLI %s against in-process sample()" % fmt)

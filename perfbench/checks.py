"""Output checks for the lambertq benchmark, made apart from the library.

Nothing here compares against a stored copy of the library's output.  Each
check recomputes the answer independently (the splitmix64 recipe, the
Weibull textbook inverse, SciPy's Lambert W and normal quantile) or tests a
property every correct quantile must have: finite, inside the support,
ordered like its probabilities, and |F(x) - u| within the contract's
tolerance.  Each check returns a list of problems; an empty list is a pass.
"""

import csv
import io
import json
import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

CLOSED_FORM_TOL = 1e-9   # |F(Q(u)) - u| for analytic quantiles
NUMERIC_TOL = 1e-12      # |F(t) - u| the numeric inverter certifies
PASS_TOL = 1e-8          # worst printed-formula error an errata verdict may pass with
KERNEL_RTOL = 1e-12      # agreement with SciPy's Lambert W and ndtri
# SciPy's lambertw loses accuracy within ~1e-8 of the branch point -1/e (its
# lower branch returns -1.000000015 where W is -1.0001), so the comparison
# skips inputs closer to -1/e than this share of 1/e
BRANCH_GAP = 1e-6


# --------------------------------------------------------------------------
# splitmix64, transcribed from the published recipe (Steele, Lea & Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014)

def splitmix64(state, n):
    """The first n outputs of splitmix64 seeded with state, as Python ints."""
    out = []
    for _ in range(n):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def splitmix64_array(state, n):
    """The same n outputs as splitmix64(state, n), vectorised on uint64."""
    z = np.uint64(state & MASK64) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniforms(state, n):
    """The stream's uniforms: the top 53 bits of each word, centred in its cell."""
    return ((splitmix64_array(state, n) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def derive_seed(seed, *keys):
    """A 63-bit seed for one operation, fixed by the run seed and the keys."""
    state = seed & MASK64
    for key in keys:
        state = splitmix64(splitmix64(state, 1)[0] ^ key, 1)[0]
    return state >> 1


# --------------------------------------------------------------------------
# quantile properties

def bad_quantiles(u, x, cdf, support, tol):
    """Mask of quantiles x of u that are not finite, lie outside [lo, hi] or are not certified.

    x is certified when |F(x) - u| <= tol, or, where F moves by more than
    tol between neighbouring doubles, when F at the two neighbours of x
    brackets u: then no double comes closer.  The support is taken closed,
    since near a finite end the double nearest the true quantile can be the
    end itself (gen_weibull at u = 1 - 1e-12).
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    lo, hi = support
    with np.errstate(invalid="ignore"):
        close = np.abs(cdf(x) - u) <= tol
        steep = ~close & np.isfinite(x)
        if steep.any():
            xs, us = x[steep], u[steep]
            close[steep] = ((cdf(np.nextafter(xs, -np.inf)) <= us)
                            & (us <= cdf(np.nextafter(xs, np.inf))))
        inside = (x >= lo) & (x <= hi)
    return ~(np.isfinite(x) & inside & close)


def order_problems(u, x):
    """Problems if x does not rise with u: one entry per pair out of order."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    order = np.argsort(u, kind="stable")
    drops = int(np.count_nonzero(np.diff(x[order]) < 0.0))
    return ["%d adjacent pairs fall as u rises" % drops] if drops else []


def quantile_problems(u, x, cdf, support, tol, order=None):
    """Every problem of a batch of quantiles x of u; order is argsort(u) if known."""
    problems = []
    if np.shape(x) != np.shape(u):
        return ["%d values for %d probabilities" % (np.size(x), np.size(u))]
    bad = bad_quantiles(u, x, cdf, support, tol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append("%d of %d values fail (first u=%r x=%r)"
                        % (int(bad.sum()), bad.size, float(u[i]), float(x[i])))
    if order is None:
        problems.extend(order_problems(u, x))
    elif np.any(np.diff(np.asarray(x, dtype=float)[order]) < 0.0):
        problems.append("values do not rise with u")
    return problems


def weibull2_problems(u, x, a, b):
    """Agreement with the textbook Weibull inverse (-ln(1-u)/a)^(1/b)."""
    ref = (-np.log1p(-np.asarray(u, dtype=float)) / a) ** (1.0 / b)
    with np.errstate(invalid="ignore"):
        ok = np.abs(np.asarray(x, dtype=float) - ref) <= KERNEL_RTOL * np.abs(ref)
    return [] if ok.all() else ["%d values differ from the textbook Weibull inverse"
                                % int((~ok).sum())]


# --------------------------------------------------------------------------
# kernels against SciPy

def kernel_inputs():
    """Fixed inputs for the kernel checks, by name: (kernel, branch, points).

    w_lower's range is split at |x| = 1e-150 so that the part holding its
    underflow fault (wrong values for |x| below about 5.6e-158) is one
    operation of its own.
    """
    e = math.exp(-1.0)
    near = -e + e * np.logspace(math.log10(BRANCH_GAP), 0.0, 2000)[:-1]
    return {
        "w_principal": ("w_principal", 0, np.concatenate([near, np.logspace(-300, 300, 4000)])),
        "w_lower": ("w_lower", -1, np.concatenate(
            [near, -np.logspace(-150, math.log10(e * (1.0 - BRANCH_GAP)), 2000)])),
        "w_lower_tiny": ("w_lower", -1, -np.logspace(-300, -150, 2000)),
        "std_normal_quantile": ("std_normal_quantile", None, np.concatenate(
            [np.logspace(-300, -0.31, 2000), 1.0 - np.logspace(-16, -0.31, 2000)])),
    }


def lambertw_problems(x, w, branch):
    """Agreement of W values with scipy.special.lambertw on branch 0 or -1."""
    from scipy.special import lambertw

    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != x.shape:
        return ["%d W values for %d inputs" % (w.size, x.size)]
    ref = lambertw(x, branch).real
    with np.errstate(invalid="ignore"):
        in_range = (w >= -1.0) if branch == 0 else (w <= -1.0)
        ok = in_range & (np.abs(w - ref) <= KERNEL_RTOL * np.maximum(np.abs(ref), 1e-300))
    if ok.all():
        return []
    i = int(np.flatnonzero(~ok)[0])
    return ["W%d differs from SciPy at %d points (x=%r w=%r scipy=%r)"
            % (branch, int((~ok).sum()), float(x[i]), float(w[i]), float(ref[i]))]


def normal_quantile_problems(p, q):
    """Agreement of standard normal quantiles with scipy.special.ndtri."""
    from scipy.special import ndtri

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape != p.shape:
        return ["%d normal quantiles for %d probabilities" % (q.size, p.size)]
    ref = ndtri(p)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(q) & (np.abs(q - ref) <= KERNEL_RTOL * np.maximum(np.abs(ref), 1.0))
    return [] if ok.all() else ["normal quantile differs from ndtri at %d points"
                                % int((~ok).sum())]


def identical_problems(a, b, what):
    """Problems unless a and b hold the same doubles, bit for bit."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return []
    return ["%s: not bit-identical" % what]


# --------------------------------------------------------------------------
# CLI output

def parse_csv_values(text):
    """Values of a `lambertq sample --format csv` document."""
    lines = text.split("\n")
    if lines[0] != "value" or lines[-1] != "":
        raise ValueError("not a one-column 'value' CSV document")
    return np.array([float(s) for s in lines[1:-1]], dtype=float)


def parse_json_values(text):
    """Values of a `lambertq sample --format json` document, checked against its n."""
    doc = json.loads(text)
    values = np.array(doc["values"], dtype=float)
    if doc["n"] != values.size:
        raise ValueError("JSON document says n=%r but holds %d values" % (doc["n"], values.size))
    return values


def parse_errata(text, fmt):
    """(family, verdict, error) rows of a `lambertq errata` document."""
    if fmt == "json":
        return [(e["family"], e["verdict"], e["max_roundtrip_error_printed"])
                for e in json.loads(text)["errata"]]
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["family", "verdict", "max_roundtrip_error_printed", "note"]:
        raise ValueError("unexpected errata CSV header %r" % rows[0])
    return [(r[0], r[1], float(r[2]) if r[2] else None) for r in rows[1:]]


# --------------------------------------------------------------------------
# errata verdicts

def expected_verdict(has_closed_form, corrected):
    """The verdict the registry's annotations call for."""
    if not has_closed_form:
        return "NoClosedForm"
    return "CorrectedFormula" if corrected else "VerifiedAsPrinted"


def errata_problems(rows, registry):
    """Problems of an errata report against the registry.

    rows are (family, verdict, max printed error) in report order; registry
    maps each family id, in registry order, to (has_closed_form, corrected).
    """
    problems = []
    families = [r[0] for r in rows]
    if families != list(registry):
        problems.append("report does not list the registry's families in order")
    for family, verdict, err in rows:
        if family not in registry:
            continue
        want = expected_verdict(*registry[family])
        if verdict != want:
            problems.append("%s: verdict %s, registry says %s" % (family, verdict, want))
        elif want == "NoClosedForm":
            if err is not None:
                problems.append("%s: error %r reported without a closed form" % (family, err))
        elif not (err is not None and err >= 0.0
                  and (err <= PASS_TOL) == (want == "VerifiedAsPrinted")):
            problems.append("%s: error %r contradicts verdict %s" % (family, err, verdict))
    return problems


def per_set_verdict_problems(family, verdict, err, has_closed_form, corrected):
    """Problems of one reference set's verify_family verdict.

    A corrected family's printed formula may pass on one parameter set (the
    mod_pareto4 error vanishes at a = b = c = 1), so either verdict is right
    for it there; the report, taken over all sets, must still flag it.
    """
    if corrected and verdict == "VerifiedAsPrinted":
        corrected = False
    return errata_problems([(family, verdict, err)], {family: (has_closed_form, corrected)})

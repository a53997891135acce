"""Real branches of the Lambert W function.

Every entry runs one solver on x and ln|x|: ln|w| + w = ln|x|, with exactly
two Fritsch-Shafer-Crowley steps (Fritsch, Shafer & Crowley, CACM 16(2),
1973) from regime-specific starting guesses:

- W0: the square-root expansion in p = sqrt(2*(e*x + 1)) about the branch
  point -1/e for x < -0.27, log1p(x) on [-0.27, e], and the asymptotic
  form ln(x) - ln(ln(x)) + ln(ln(x))/ln(x) above e (Corless et al., 1996);
- W-1: the same expansion with p < 0 for x < -0.2, and
  ln(-x) - ln(-ln(-x)) above that, toward 0-.

The start alone is kept within 1e-5 of the branch point, at x = 0 and where
ln x > 1e300 (there the asymptotic form is exact); those points report 0
iterations, every other point 2.  ``w_principal`` and ``w_lower`` pass
np.log(|x|) and report the identity residual |w*exp(w) - x| / max(|x|, 1e-300)
and the iteration count alongside the value.  ``tree_t`` solves at -x.
``w_principal_from_log`` passes log_x itself with x = exp(log_x), +inf past
709.78, where the start and the steps read only ln x.

An array's range is read once, by ``bounds``: one ``item()`` on one point,
one min and one max on more (a NaN makes both NaN).  The bulk start (log1p(x)
for W0, the logarithmic form for W-1) and the two steps cover the whole array;
the other starts, and the points that keep their start, are masked in only
where the range says the array has such points.  No point depends on the others.
One point is held in float64 scalars by ``_solve_one``, which picks its start
and keep test with ``if`` and calls the same start and step formulas, so it
gets the bits it gets in an array without paying NumPy's per-call cost on
one-element arrays.  Shapes in and out follow the contract in ``_arrays``.

The principal branch W0 covers x >= -1/e with W0 >= -1; the lower branch
W-1 covers -1/e <= x < 0 with W-1 <= -1.  Inputs up to 1e-15 below the
branch point are clamped to -1/e rather than rejected, because quantile
formulas can land an ulp below it at extreme probabilities.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from ._arrays import bounds, points, shaped
from .errors import DomainError

__all__ = ["Branch", "WEvaluation", "w_principal", "w_lower", "w_series", "tree_t"]

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, where both real branches meet at w = -1
_CLAMP_BELOW = 1e-15             # tolerated undershoot below -1/e from roundoff
_EXPANSION_WINDOW = 1e-5         # |x + 1/e| below this: branch expansion alone
_W0_SPLIT = -0.27                # W0 starts from the branch expansion below this x
_WM1_SPLIT = -0.2                # and W-1 below this one
_LOG_EXACT = 1e300               # ln x above this: the asymptotic start is W0 exactly

# Taylor coefficients of W0 about 0: W0(x) = sum_{n>=1} (-n)^(n-1)/n! * x^n.
# Exact rationals keep each coefficient within one rounding of true.
_SERIES_COEFFS = tuple(
    float(Fraction((-n) ** (n - 1), math.factorial(n))) for n in range(1, 31)
)


class Branch(Enum):
    """Real branch selector: PRINCIPAL is W0 (w >= -1), LOWER is W-1 (w <= -1)."""

    PRINCIPAL = "principal"
    LOWER = "lower"


@dataclass(frozen=True)
class WEvaluation:
    """A Lambert W value with its identity residual and iteration count."""

    value: float
    residual: float
    iterations: int


def _series_sum(x, n_terms):
    """Horner evaluation of the n_terms-term Taylor partial sum."""
    s = np.full_like(x, _SERIES_COEFFS[n_terms - 1])
    for k in range(n_terms - 2, -1, -1):
        s = s * x + _SERIES_COEFFS[k]
    return s * x


def _branch_expansion(p):
    """Expansion about the branch point: w = -1 + p - p^2/3 + ..., p = +-sqrt(2(e*x+1))."""
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0
                 + p * (-43.0 / 540.0 + p * (769.0 / 17280.0)))))


def _branch_start(x, branch):
    """Start next to the branch point: the expansion at p >= 0 on W0, p <= 0 on W-1."""
    p = np.sqrt(2.0 * math.e * (x - _BRANCH_POINT))
    return _branch_expansion(p if branch is Branch.PRINCIPAL else -p)


def _asymptotic(lx):
    """Start for large arguments from lx = ln(x): ln x - ln ln x + ln ln x / ln x."""
    llx = np.log(lx)
    return lx - llx + llx / lx


def _lower_asymptotic(lx):
    """W-1 start toward 0- from lx = ln(-x): ln(-x) - ln(-ln(-x))."""
    return lx - np.log(-lx)


def _keeps_start(x, lx):
    """Where the start is already W: ~1e-12 next to the branch point, exact at 0
    and past ln x = 1e300."""
    return (x - _BRANCH_POINT <= _EXPANSION_WINDOW) | (x == 0.0) | (lx > _LOG_EXACT)


def _refine(w, log_x):
    """Two Fritsch-Shafer-Crowley steps on ln|w| + w = ln|x|, on an array or a scalar.

    Each step multiplies w by 1 + r(q - r)/(q - 2r), with z = ln|x| - ln|w| - w,
    r = z/(1 + w) and q = 2(1 + w + 2z/3).  From every start used here two
    steps agree with SciPy's lambertw to 1.2e-13 relative, and to 1e-14
    farther than 1e-3 from the branch point.  Working on ln|x| keeps the
    step free of overflow and underflow for any representable x.
    """
    for _ in range(2):
        z = log_x - np.log(np.abs(w)) - w
        r = z / (1.0 + w)
        q = 2.0 * (1.0 + w + (2.0 / 3.0) * z)
        w = w * (1.0 + r * (q - r) / (q - 2.0 * r))
    return w


def _solve(x, lx, lo, hi, branch):
    """W(x) and iterations per point, from x, lx = ln|x| and x's range lo, hi.

    x = +inf is allowed on W0, where lx holds its finite log.  Above
    lx = 1e300, 2(1 + w) inside a step would overflow.  Callers hold an
    ``np.errstate``."""
    # the bulk start covers the whole block; the others only where it has points
    if branch is Branch.PRINCIPAL:
        w0 = np.log1p(x)
        if hi > math.e:
            m = x > math.e
            w0[m] = _asymptotic(lx[m])
        split = _W0_SPLIT
    else:
        w0 = _lower_asymptotic(lx)
        split = _WM1_SPLIT
    if lo < split:
        m = x < split
        w0[m] = _branch_start(x[m], branch)
    w = _refine(w0, lx)
    iters = np.full(x.shape, 2)
    if lo - _BRANCH_POINT <= _EXPANSION_WINDOW or lo <= 0.0 <= hi or hi == math.inf:
        keep = _keeps_start(x, lx)
        w[keep] = w0[keep]
        iters[keep] = 0
    return w, iters


def _solve_one(x, lx, branch):
    """``_solve`` for one point held in float64 scalars: the same starts, steps
    and keep test, picked with ``if``, so the point gets the bits it gets in a
    block.  Callers hold an ``np.errstate``."""
    if x < (_W0_SPLIT if branch is Branch.PRINCIPAL else _WM1_SPLIT):
        w0 = _branch_start(x, branch)
    elif branch is Branch.LOWER:
        w0 = _lower_asymptotic(lx)
    elif x > math.e:
        w0 = _asymptotic(lx)
    else:
        w0 = np.log1p(x)
    if _keeps_start(x, lx):
        return w0, 0
    return _refine(w0, lx), 2


def _evaluate(x, branch):
    v, shape = points(x)
    lo, hi = bounds(v)  # a NaN anywhere makes both NaN; no point gives (inf, -inf)
    if not (-math.inf < lo and hi < math.inf):  # finite, or no point at all
        raise DomainError("lambert w: input must be finite")
    if lo < _BRANCH_POINT - _CLAMP_BELOW:
        raise DomainError(
            "lambert w: x must be >= -1/e (%r); got %r" % (_BRANCH_POINT, lo)
        )
    if branch is Branch.LOWER and hi >= 0.0:
        raise DomainError("w_lower: x must be < 0; got %r" % hi)
    with np.errstate(all="ignore"):  # ln 0 = -inf at x = 0, which is never refined
        if v.size == 1:
            x1 = np.float64(max(lo, _BRANCH_POINT))  # absorb sub-branch-point roundoff
            w, iters = _solve_one(x1, np.log(abs(x1)), branch)
            res = abs(w * np.exp(w) - x1) / max(abs(x1), 1e-300)
        else:
            if lo < _BRANCH_POINT:
                v = np.maximum(v, _BRANCH_POINT)  # absorb sub-branch-point roundoff
            w, iters = _solve(v, np.log(np.abs(v)), lo, hi, branch)
            res = np.abs(w * np.exp(w) - v) / np.maximum(np.abs(v), 1e-300)
    return WEvaluation(shaped(w, shape), shaped(res, shape), shaped(iters, shape))


def w_principal(x):
    """Principal branch W0: the w >= -1 solving w*exp(w) = x, for x >= -1/e.

    Returns a WEvaluation of the value, its identity residual and its
    iteration count.  w_principal(0) is exactly 0.
    """
    return _evaluate(x, Branch.PRINCIPAL)


def w_lower(x):
    """Lower branch W-1: the w <= -1 solving w*exp(w) = x, for -1/e <= x < 0."""
    return _evaluate(x, Branch.LOWER)


def w_series(x, n_terms):
    """Partial sum of the Taylor series of W0 about 0: sum (-n)^(n-1)/n! x^n.

    Valid for |x| < 1/e (the series radius); n_terms is capped at 30 to
    keep the coefficients exactly representable in double precision.
    """
    n = int(n_terms)
    if n < 1 or n > 30:
        raise ValueError("w_series: n_terms must be between 1 and 30; got %r" % n_terms)
    v, shape = points(x)
    if np.any(~np.isfinite(v)) or np.any(np.abs(v) >= -_BRANCH_POINT):
        raise DomainError("w_series: |x| must be < 1/e (series radius)")
    return shaped(_series_sum(v, n), shape)


def tree_t(x):
    """Tree function T(x) = -W0(-x), defined for x <= 1/e."""
    v, shape = points(x)
    lo, hi = bounds(v)  # a NaN anywhere makes both NaN; no point gives (inf, -inf)
    if not (-math.inf < lo and hi < math.inf):
        raise DomainError("tree_t: input must be finite")
    top = -_BRANCH_POINT  # 1/e
    if hi > top + _CLAMP_BELOW:
        raise DomainError("tree_t: x must be <= 1/e; got %r" % hi)
    with np.errstate(all="ignore"):  # ln 0 = -inf at x = 0, which is never refined
        if v.size == 1:
            neg = np.float64(-min(lo, top))
            out = -_solve_one(neg, np.log(abs(neg)), Branch.PRINCIPAL)[0]
        else:
            neg = -np.minimum(v, top)
            out = -_solve(neg, np.log(np.abs(neg)), -min(hi, top), -min(lo, top),
                          Branch.PRINCIPAL)[0]
    return shaped(out, shape)


def w_principal_from_log(log_x):
    """W0(exp(log_x)) without forming exp(log_x), for any log_x below +inf.

    Runs w_principal's solver with log_x itself as ln x, so no step takes the
    log of a rounded exp; log_x = -inf gives W0(0) = 0.  NaN and +inf raise
    DomainError.  Returns the value only (no residual metadata) -- this is
    plumbing for quantile formulas whose W argument overflows double precision.
    """
    v, shape = points(log_x)
    lo, hi = bounds(v)  # a NaN anywhere makes both NaN; no point gives (inf, -inf)
    if math.isnan(lo) or hi == math.inf:
        raise DomainError("w_principal_from_log: log_x must not be NaN or +inf; got %r"
                          % (lo if math.isnan(lo) else hi))
    with np.errstate(all="ignore"):  # exp overflows to +inf past 709.78
        if v.size == 1:
            lx = np.float64(lo)
            out = _solve_one(np.exp(lx), lx, Branch.PRINCIPAL)[0]
        else:
            x = np.exp(v)
            out = _solve(x, v, *bounds(x), Branch.PRINCIPAL)[0]
    return shaped(out, shape)

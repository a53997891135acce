"""Numeric quantile inversion: Chandrupatla's bracketed method on the log hazard.

Works for every family, including the four without a closed-form inverse.
It solves ln H(t) = ln(-ln(1 - u)), H = -ln SF, in y = log2(t - lo) (y = t
on a two-sided support), where the equation is nearly linear for power-law
hazards.  ln H is the log of the family's own cumulative hazard, which stays
exact where SF rounds to 1; only the ten families that store their survival
function instead go through -ln SF.  A ladder of rungs, t - lo doubling from
rung to rung, brackets every u; ln H on it does not depend on u, so it is
evaluated once per parameter set and cached, and a call runs one binary
search over it.  Chandrupatla's method (Adv. Eng. Softw. 28(3), 1997) then
evaluates H on the still active points alone.
Each returned t is certified by its roundtrip residual |F(t) - u|.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import BracketError, LambertQError
from .families import QuantilePath, QuantileResult, cdf, family_info, _check_u_open

__all__ = ["numeric_quantile", "invert_cdf"]

_MAX_DOUBLINGS = 1000
_MAX_STEPS = 400  # cap on Chandrupatla steps; a point still open keeps its first bracket
_EPS = np.finfo(float).eps
_Y_FLOOR = -1074.0  # y of the smallest positive t - lo


def _log_h(fam, params, hi, t):
    """ln H(t); a NaN hazard or survival, and t at or past a finite hi, count as past the root."""
    if fam.hazard is not None:
        out = np.log(fam.hazard(t, params))
    else:  # H = -ln SF, which loses H where SF rounds to 1
        out = np.log(-np.log(np.minimum(fam.sf(t, params), 1.0)))
    if math.isfinite(hi):
        out[t >= hi] = np.inf  # H is infinite there by definition
    return np.fmin(out, np.inf)


def _to_t(lo):
    return (lambda y: lo + np.exp2(y)) if math.isfinite(lo) else (lambda y: y)


@lru_cache(maxsize=128)
@np.errstate(all="ignore")
def _ladder(family, bits, support):
    """Read-only rungs y and the running maximum of ln H on them, which need no u; the
    key holds each parameter's exact bits (``float.hex``), so 0.0 and -0.0 part ways."""
    lo, hi = (float.fromhex(h) for h in support)
    if math.isfinite(lo):
        top = (math.log2(hi - lo) if math.isfinite(hi)
               else math.log2(max(1.0, abs(lo))) + _MAX_DOUBLINGS)
        rungs = top - np.arange(int(top - _Y_FLOOR), -1, -1)
    else:
        rungs = 2.0 ** np.arange(_MAX_DOUBLINGS + 1)
        rungs = np.concatenate([-rungs[::-1], rungs])
    params = {k: float.fromhex(h) for k, h in bits}
    at = _log_h(family_info(family), params, hi, _to_t(lo)(rungs))
    at[0] = -np.inf  # the lowest rung stands for lo, where F = 0, or for -2^1000
    np.maximum.accumulate(at, out=at)
    rungs.flags.writeable = at.flags.writeable = False
    return rungs, at


@np.errstate(all="ignore")
def _bracketed_root(spec, u):
    """t with ln H(t) = ln(-ln(1 - u)) for each u, to the last double or within 2 eps."""
    fam, params = family_info(spec.family), spec.params
    lo, hi = spec.support
    to_t, log_h = _to_t(lo), lambda t: _log_h(fam, params, hi, t)
    rungs, at = _ladder(spec.family, tuple((k, float(v).hex()) for k, v in params.items()),
                        (float(lo).hex(), float(hi).hex()))
    log_l = np.log(-np.log1p(-u))
    j = np.maximum(np.searchsorted(at, log_l), 1)
    if (j == at.size).any():
        raise BracketError(
            "%s: no upper bracket for u up to %r after %d doublings (survival mass may "
            "remain at infinity)" % (spec.family, float(u[j == at.size].max()), _MAX_DOUBLINGS))

    # state rows: x1 f1 the newest point, x2 f2 the bracket's other edge, x3 f3 the edge dropped
    ga, gb = at[j - 1] - log_l, at[j] - log_l
    state = np.array([rungs[j - 1], ga, rungs[j], gb, rungs[j], gb])
    ends, idx = state[:4].copy(), np.arange(u.shape[0])
    tau = ga / (ga - gb)  # the secant point, or the midpoint where that is not finite
    tau = np.where(np.isfinite(tau), tau, 0.5)
    for _ in range(_MAX_STEPS):
        if idx.size == 0:
            break
        x1, f1, x2 = state[:3]
        tl = np.minimum(2.0 * _EPS * (np.abs(x1) + 1.0) / np.abs(x2 - x1), 0.5)
        x = x1 + np.minimum(np.maximum(tau, tl), 1.0 - tl) * (x2 - x1)  # a few ulp off the edges
        t = to_t(x)
        f = log_h(t) - log_l
        keep = (f < 0.0) == (f1 < 0.0)
        state[4:6] = np.where(keep, state[0:2], state[2:4])
        state[2:4] = np.where(keep, state[2:4], state[0:2])
        state[0], state[1] = x, f
        # no double strictly inside the bracket, in y or in t: midpoints round to an edge
        x2, t2 = state[2], to_t(state[2])
        xm, tm = 0.5 * (x + x2), 0.5 * (t + t2)
        done = (np.abs(f) <= 2.0 * _EPS) | (xm == x) | (xm == x2) | (tm == t) | (tm == t2)
        if done.any():
            ends[:, idx[done]] = np.compress(done, state[:4], axis=1)
            state, idx, log_l = np.compress(~done, state, axis=1), idx[~done], log_l[~done]
        x1, f1, x2, f2, x3, f3 = state
        xi, phi, alpha = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2), (x3 - x1) / (x2 - x1)
        iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        tau = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                       - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)

    # the edge whose F = 1 - exp(-H) lies closer to u; on a tie, closer in ln H
    x1, f1, x2, f2 = ends
    d1, d2 = (np.abs(-np.expm1(-np.exp(f + np.log(-np.log1p(-u)))) - u) for f in (f1, f2))
    return to_t(np.where((d1 < d2) | ((d1 == d2) & (np.abs(f1) <= np.abs(f2))), x1, x2))


def invert_cdf(spec, u, tol=1e-12):
    """Vectorized t with |cdf(spec, t) - u| <= tol for each u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    t = _bracketed_root(spec, u)
    res = np.abs(cdf(spec, t) - u)
    if float(res.max()) > tol:
        raise LambertQError(
            "%s: numeric inversion reached residual %r, above the requested "
            "tolerance %r" % (spec.family, float(res.max()), tol)
        )
    return t


def numeric_quantile(spec, u, tol=1e-12):
    """Quantile by numeric CDF inversion, for any family.

    Chandrupatla's bracketed method on ln H(t) = ln(-ln(1 - u)), with H the
    family's own cumulative hazard, or -ln SF for the ten families that
    store only their survival function (see the module docstring).  Returns
    a QuantileResult on the Numeric path whose roundtrip residual is
    certified <= tol, or raises LambertQError.  tol must be at least 1e-14
    (below that the CDF's own rounding noise dominates).
    """
    if not tol >= 1e-14:
        raise ValueError("numeric_quantile: tol must be >= 1e-14; got %r" % tol)
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    v = np.atleast_1d(arr).astype(float)
    _check_u_open(v, spec)
    t = invert_cdf(spec, v, tol=tol)
    res = np.abs(cdf(spec, t) - v)
    if scalar:
        return QuantileResult(float(t[0]), QuantilePath.NUMERIC, float(res[0]))
    return QuantileResult(t, QuantilePath.NUMERIC, res)

"""Numeric quantile inversion: Chandrupatla's bracketed method on the log hazard.

Works for every family, including the four without a closed-form inverse.
It solves ln H(t) = ln(-ln(1 - u)), H = -ln SF, in y = log2(t - lo) (y = t
on a two-sided support), where the equation is nearly linear for power-law
hazards.  ln H is the log of the family's own cumulative hazard, which stays
exact where SF rounds to 1; it is read through ``families._hazard``, the one
door that also makes H infinite from a finite hi on.  A ladder of rungs 1/16
apart in y (t - lo grows by 2^(1/16) from rung to rung) brackets every u;
ln H on it does not depend on u, so it is evaluated once per parameter set
and cached, and a call runs one binary search over the rungs its u can need.
A u outside (0, 1), NaN included, raises DomainError.  Across one
rung ln H is nearly linear, so the first secant step lands close to the root,
and Chandrupatla's method (Adv. Eng. Softw. 28(3), 1997) evaluates H about
three times per quantile in all, each time on the still active points alone.
Each returned t is certified by its roundtrip residual |F(t) - u|.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import BracketError, DomainError, LambertQError
from .families import (DistributionSpec, QuantilePath, QuantileResult, cdf, _check_u_open,
                       _hazard)

__all__ = ["numeric_quantile", "invert_cdf"]

_MAX_DOUBLINGS = 1000
_PER_OCTAVE = 16  # rungs per doubling of t - lo (of |t| on a two-sided support)
_MAX_STEPS = 400  # cap on Chandrupatla steps; a point still open keeps its first bracket
_TWO_EPS = 2.0 * np.finfo(float).eps
_EDGES = np.array([[1], [0]])  # rung j - 1 and rung j, the bracket a search hands out
_Y_FLOOR = -1074.0  # y of the smallest positive t - lo


def _log_h(spec, t):
    """ln H(t), +inf from hi on; a NaN hazard counts as past the root."""
    return np.fmin(np.log(_hazard(spec, t)), np.inf)


def _to_t(lo):
    return (lambda y: lo + np.exp2(y)) if math.isfinite(lo) else (lambda y: y)


def _rung(lo, j):
    """y of rung j (an int or int array): _Y_FLOOR + j/16 above a finite lo; on a
    two-sided support t itself, -2^1000 ... -1, 1 ... 2^1000, 2^(1/16) apart."""
    if math.isfinite(lo):
        return _Y_FLOOR + j / _PER_OCTAVE
    s = j - (_MAX_DOUBLINGS * _PER_OCTAVE + 0.5)
    return np.copysign(np.exp2((np.abs(s) - 0.5) / _PER_OCTAVE), s)


@lru_cache(maxsize=64)
@np.errstate(all="ignore")
def _ladder(family, bits, support):
    """Read-only running maximum of ln H on the rungs, which needs no u.

    The key holds each parameter's exact bits (``float.hex``), so 0.0 and
    -0.0 part ways.  A ladder holds at most 49 570 doubles (397 KB, for a
    finite lo near the largest double), so the cache holds at most 25.4 MB;
    at lo = 0 a ladder is 33 186 doubles (265 KB).
    """
    lo, hi = (float.fromhex(h) for h in support)
    if math.isfinite(lo):
        top = (math.log2(hi - lo) if math.isfinite(hi)
               else math.log2(max(1.0, abs(lo))) + _MAX_DOUBLINGS)
        # one rung past top, as lo + 2^top can round below a finite hi
        count = math.ceil((top - _Y_FLOOR) * _PER_OCTAVE) + 2
    else:
        count = 2 * _MAX_DOUBLINGS * _PER_OCTAVE + 2
    spec = DistributionSpec(family, {k: float.fromhex(h) for k, h in bits}, (lo, hi))
    at = _log_h(spec, _to_t(lo)(_rung(lo, np.arange(count))))
    at[0] = -np.inf  # the lowest rung stands for lo, where F = 0, or for -2^1000
    np.maximum.accumulate(at, out=at)
    at.flags.writeable = False
    return at


@np.errstate(all="ignore")
def _bracketed_root(spec, u):
    """t with ln H(t) = ln(-ln(1 - u)) for each u, to the last double or within 2 eps."""
    lo, hi = spec.support
    to_t = _to_t(lo)
    at = _ladder(spec.family, tuple((k, float(v).hex()) for k, v in spec.params.items()),
                 (float(lo).hex(), float(hi).hex()))
    log_u = log_l = np.log(-np.log1p(-u))
    bounds = log_l.min(), log_l.max()
    if not (math.isfinite(bounds[0]) and math.isfinite(bounds[1])):  # exactly 0 < u < 1
        raise DomainError("%s: invert_cdf needs u strictly inside (0, 1)" % spec.family)
    first, last = np.searchsorted(at, bounds)  # the rungs any root can need
    if last == at.size:
        worst = float(u[~(log_l <= at[-1])].max())
        raise BracketError(
            "%s: no upper bracket for u up to %r after %d doublings (survival mass may "
            "remain at infinity)" % (spec.family, worst, _MAX_DOUBLINGS))
    j = np.maximum(at[first:last].searchsorted(log_l) + first, 1)

    # state rows: f1 x1 t1 the newest point, f2 x2 t2 the bracket's other edge,
    # f3 x3 the edge dropped; the start is rung j - 1 and rung j
    y = _rung(lo, j - _EDGES)
    g, t = at[j - _EDGES] - log_l, to_t(y)
    state = np.array([g[0], y[0], t[0], g[1], y[1], t[1], g[1], y[1]])
    ends, idx = state[:6].copy(), np.arange(u.shape[0])
    tau = g[0] / (g[0] - g[1])  # the secant point, or the midpoint where that is not finite
    tau = np.where(np.isfinite(tau), tau, 0.5)
    for _ in range(_MAX_STEPS):
        f1, x1, dx = state[0], state[1], state[4] - state[1]
        tl = np.minimum(_TWO_EPS * (np.abs(x1) + 1.0) / np.abs(dx), 0.5)
        x = x1 + np.minimum(np.maximum(tau, tl), 1.0 - tl) * dx  # a few ulp off the edges
        t = to_t(x)
        f = _log_h(spec, t) - log_l
        keep = (f < 0.0) == (f1 < 0.0)
        state[6:8] = np.where(keep, state[0:2], state[3:5])
        state[3:6] = np.where(keep, state[3:6], state[0:3])
        state[0], state[1], state[2] = f, x, t
        # no double strictly inside the bracket, in y or in t: midpoints round to an edge
        mid = 0.5 * (state[1:3] + state[4:6])
        edge = (mid == state[1:3]) | (mid == state[4:6])
        done = (np.abs(f) <= _TWO_EPS) | edge[0] | edge[1]
        finished = np.count_nonzero(done)
        if finished:
            ends[:, idx[done]] = np.compress(done, state[:6], axis=1)
            if finished == idx.size:
                break
            open_ = ~done
            state, idx, log_l = np.compress(open_, state, axis=1), idx[open_], log_l[open_]
        # inverse quadratic interpolation where Chandrupatla's test allows it;
        # num holds f1 - f2 and x1 - x2, den f3 - f2 and x3 - x2
        num, den = state[0:2] - state[3:5], state[6:8] - state[3:5]
        phi, xi = num / den
        alpha = (state[7] - state[1]) / (state[4] - state[1])
        f1, f2, f3 = state[0], state[3], state[6]
        iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
        tau = np.where(iqi, f1 / num[0] * f3 / den[0]
                       - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)

    # the edge whose F = 1 - exp(-H) lies closer to u; on a tie, closer in ln H
    f = ends[0::3]  # f1 and f2
    d = np.abs(-np.expm1(-np.exp(f + log_u)) - u)
    a = np.abs(f)
    t = np.where((d[0] < d[1]) | ((d[0] == d[1]) & (a[0] <= a[1])), ends[2], ends[5])
    return np.minimum(t, hi)  # an edge past a finite hi has F = 1, as hi itself has


def invert_cdf(spec, u, tol=1e-12):
    """Vectorized t with |cdf(spec, t) - u| <= tol for each u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        return np.empty(u.shape)
    t = _bracketed_root(spec, u)
    res = np.abs(cdf(spec, t) - u)
    if not res.max() <= tol:  # a NaN residual fails too
        raise LambertQError(
            "%s: numeric inversion reached residual %r, not within the requested "
            "tolerance %r" % (spec.family, float(res.max()), tol)
        )
    return t


def numeric_quantile(spec, u, tol=1e-12):
    """Quantile by numeric CDF inversion, for any family.

    Chandrupatla's bracketed method on ln H(t) = ln(-ln(1 - u)), with H the
    family's own cumulative hazard (see the module docstring).  Returns
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

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

One step, two state holders, chosen by point count: a call with one point
keeps its bracket in float64 scalars and branches with ``if``; a call with
more keeps all brackets in one (8, n) array, selects with ``np.where`` and
drops finished points.  Both call the same functions for the first bracket,
the trial point, the interpolation step, the stopping test and the final
pick, built from operators and ufuncs that give the same bits on scalars and
arrays, so a u gets the same t alone or inside any batch.  The scalar
loop still reads H on a one-point array, through the same door.
"""

import math
from functools import lru_cache

import numpy as np

from ._arrays import bounds, points, shaped
from .errors import BracketError, DomainError, LambertQError
from .families import (DistributionSpec, QuantilePath, QuantileResult, cdf, _check_u_open,
                       _hazard, _residual)

__all__ = ["numeric_quantile", "invert_cdf"]

_MAX_DOUBLINGS = 1000
_PER_OCTAVE = 16  # rungs per doubling of t - lo (of |t| on a two-sided support)
_MAX_STEPS = 400  # cap on Chandrupatla steps; a point still open keeps its first bracket
_TWO_EPS = 2.0 * np.finfo(float).eps
_Y_FLOOR = -1074.0  # y of the smallest positive t - lo
_LADDERS = 128  # ladders cached: more than the 85 reference sets, so a pass keeps them


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


@lru_cache(maxsize=_LADDERS)
@np.errstate(all="ignore")
def _ladder(family, bits, support):
    """Read-only running maximum of ln H on the rungs, which needs no u.

    The key holds each parameter's exact bits (``float.hex``), so 0.0 and
    -0.0 part ways.  A ladder holds at most 49 570 doubles (397 KB, for a
    finite lo near the largest double), so the cache of 128 holds at most
    50.8 MB; at lo = 0 a ladder is 33 186 doubles (265 KB), 34.0 MB for 128.
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


def _start(at, lo, to_t, j, log_l):
    """The first bracket, rung j - 1 and rung j, as f1 x1 t1 f2 x2 t2, and the
    secant step tau across it; both loops take 0.5 where tau is not finite."""
    y1, y2 = _rung(lo, j - 1), _rung(lo, j)
    f1, f2 = at[j - 1] - log_l, at[j] - log_l
    return (f1, y1, to_t(y1), f2, y2, to_t(y2)), f1 / (f1 - f2)


def _trial(x1, x2, tau):
    """The next point x1 + tau (x2 - x1), with tau held a few ulp inside (0, 1)."""
    dx = x2 - x1
    tl = np.minimum(_TWO_EPS * (abs(x1) + 1.0) / abs(dx), 0.5)
    return x1 + np.minimum(np.maximum(tau, tl), 1.0 - tl) * dx


def _closed(x1, t1, x2, t2):
    """No double strictly inside the bracket, in y or in t: midpoints round to an edge."""
    mx, mt = 0.5 * (x1 + x2), 0.5 * (t1 + t2)
    return (mx == x1) | (mx == x2) | (mt == t1) | (mt == t2)


def _iqi(f1, x1, f2, x2, f3, x3):
    """Chandrupatla's inverse quadratic interpolation step tau, and whether his
    test allows it; where it does not, the step is the midpoint, tau = 0.5."""
    num_f, num_x, den_f = f1 - f2, x1 - x2, f3 - f2
    phi, xi = num_f / den_f, num_x / (x3 - x2)
    alpha = (x1 - x3) / num_x  # (x3 - x1) / (x2 - x1), signs flipped
    allowed = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
    return allowed, f1 / num_f * f3 / den_f - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)


def _closer(f1, f2, log_u, u):
    """Whether edge 1's F = 1 - exp(-H) lies closer to u than edge 2's; on a tie,
    whether it lies closer in ln H."""
    d1 = abs(-np.expm1(-np.exp(f1 + log_u)) - u)
    d2 = abs(-np.expm1(-np.exp(f2 + log_u)) - u)
    return (d1 < d2) | ((d1 == d2) & (abs(f1) <= abs(f2)))


def _steps_one(spec, to_t, u, log_u, start, tau):
    """Chandrupatla's steps for one point, held in float64 scalars."""
    f1, x1, t1, f2, x2, t2 = start
    f3, x3 = f2, x2
    if not math.isfinite(tau):
        tau = 0.5
    for _ in range(_MAX_STEPS):
        x = _trial(x1, x2, tau)
        t = to_t(x)
        f = _log_h(spec, np.array([t]))[0] - log_u
        if (f < 0.0) == (f1 < 0.0):
            f3, x3 = f1, x1
        else:
            f3, x3, f2, x2, t2 = f2, x2, f1, x1, t1
        f1, x1, t1 = f, x, t
        if abs(f) <= _TWO_EPS or _closed(x1, t1, x2, t2):
            break
        allowed, tau = _iqi(f1, x1, f2, x2, f3, x3)
        if not allowed:
            tau = 0.5
    else:
        f1, _, t1, f2, _, t2 = start
    return t1 if _closer(f1, f2, log_u, u) else t2


def _steps_many(spec, to_t, u, log_u, start, tau):
    """Chandrupatla's steps for many points, held in an (8, n) array from which
    finished points drop out."""
    # rows: f1 x1 t1 the newest point, f2 x2 t2 the bracket's other edge,
    # f3 x3 the edge dropped
    state = np.array(start + start[3:5])
    ends, idx, log_l = state[:6].copy(), np.arange(u.shape[0]), log_u
    tau = np.where(np.isfinite(tau), tau, 0.5)
    for _ in range(_MAX_STEPS):
        x = _trial(state[1], state[4], tau)
        t = to_t(x)
        f = _log_h(spec, t) - log_l
        keep = (f < 0.0) == (state[0] < 0.0)
        state[6:8] = np.where(keep, state[0:2], state[3:5])
        state[3:6] = np.where(keep, state[3:6], state[0:3])
        state[0], state[1], state[2] = f, x, t
        done = (np.abs(f) <= _TWO_EPS) | _closed(x, t, state[4], state[5])
        finished = np.count_nonzero(done)
        if finished == idx.size:
            ends[:, idx] = state[:6]
            break
        if finished:
            ends[:, idx[done]] = np.compress(done, state[:6], axis=1)
            open_ = ~done
            state, idx, log_l = np.compress(open_, state, axis=1), idx[open_], log_l[open_]
        allowed, tau = _iqi(state[0], state[1], state[3], state[4], state[6], state[7])
        tau = np.where(allowed, tau, 0.5)
    return np.where(_closer(ends[0], ends[3], log_u, u), ends[2], ends[5])


@np.errstate(all="ignore")
def _bracketed_root(spec, u):
    """t with ln H(t) = ln(-ln(1 - u)) for each u, to the last double or within 2 eps.

    One point takes its steps in scalars and returns one float64, more points
    take them in one state array; both loops call the same formulas, so a
    point gets the same bits either way."""
    lo, hi = spec.support
    to_t = _to_t(lo)
    at = _ladder(spec.family, tuple((k, float(v).hex()) for k, v in spec.params.items()),
                 (float(lo).hex(), float(hi).hex()))
    log_u = np.log(-np.log1p(-u))
    span = bounds(log_u)
    if not (math.isfinite(span[0]) and math.isfinite(span[1])):  # exactly 0 < u < 1
        raise DomainError("%s: invert_cdf needs u strictly inside (0, 1)" % spec.family)
    first, last = np.searchsorted(at, span)  # the rungs any root can need
    if last == at.size:
        worst = float(u[~(log_u <= at[-1])].max())
        raise BracketError(
            "%s: no upper bracket for u up to %r after %d doublings (survival mass may "
            "remain at infinity)" % (spec.family, worst, _MAX_DOUBLINGS))
    if u.size == 1:  # first is its own rung
        steps, j, u, log_u = _steps_one, max(first, 1), u[0], log_u[0]
    else:
        steps, j = _steps_many, np.maximum(at[first:last].searchsorted(log_u) + first, 1)
    start, tau = _start(at, lo, to_t, j, log_u)
    # an edge past a finite hi has F = 1, as hi itself has
    return np.minimum(steps(spec, to_t, u, log_u, start, tau), hi)


def invert_cdf(spec, u, tol=1e-12):
    """Vectorized t with |cdf(spec, t) - u| <= tol for each u in (0, 1)."""
    v, shape = points(u)
    if v.size == 0:
        return np.empty(shape)
    t = _bracketed_root(spec, v.ravel()).reshape(v.shape)
    worst = bounds(np.abs(cdf(spec, t) - v))[1]
    if not worst <= tol:  # a NaN residual fails too
        raise LambertQError(
            "%s: numeric inversion reached residual %r, not within the requested "
            "tolerance %r" % (spec.family, worst, tol)
        )
    return shaped(t, shape)


def numeric_quantile(spec, u, tol=1e-12):
    """Quantile by numeric CDF inversion, for any family.

    Chandrupatla's bracketed method on ln H(t) = ln(-ln(1 - u)), with H the
    family's own cumulative hazard (see the module docstring).  One u takes
    its steps in scalars, more u in one state array; the formulas are shared,
    so a u gets the same t either way.  Returns a QuantileResult on the
    Numeric path whose roundtrip residual is certified <= tol, or raises
    LambertQError.  tol must be at least 1e-14 (below that the CDF's own
    rounding noise dominates).  The reported residual comes from the SF form
    that ``quantile`` and ``cdf`` use, on one more H read after the
    certificate's.
    """
    if not tol >= 1e-14:
        raise ValueError("numeric_quantile: tol must be >= 1e-14; got %r" % tol)
    v, shape = points(u)
    _check_u_open(v, spec)
    t = invert_cdf(spec, v, tol=tol)
    with np.errstate(all="ignore"):
        res = _residual(spec, t, v)
    return QuantileResult(shaped(t, shape), QuantilePath.NUMERIC, shaped(res, shape))

"""Numeric quantile inversion on the log hazard: a cubic start and fixed
Newton and secant steps, Chandrupatla's bracketed method for the few they leave.

Works for every family, including the four without a closed-form inverse.
It solves ln H(t) = ln(-ln(1 - u)), H = -ln SF, in y = log2(t - lo) (y = t
on a two-sided support), where the equation is nearly linear for power-law
hazards.  ln H is the log of the family's own cumulative hazard, which stays
exact where SF rounds to 1; it is read through ``families._hazard``, the one
door that also makes H infinite from a finite hi on.  A ladder of rungs 1/16
apart in y (t - lo grows by 2^(1/16) from rung to rung) brackets every u;
ln H on it does not depend on u, so it is evaluated once per parameter set
and cached, beside a guide table over ln L (Chen and Asau, AIIE Trans. 6,
1974) that finds the rungs of many u in a few array passes.  A u outside
(0, 1), NaN included, raises DomainError.

Then each point inverts by interpolation and polishes (Hoermann and Leydold,
ACM TOMACS 13(4), 2003), with no masks until its second H read: the cubic
through the four rungs around its bracket gives y as a function of ln H and
a first point, and one Newton step with the cubic's slope gives the second.
A point that misses |ln H - ln L| <= 2 eps there takes one secant step, and
one that misses it again (about 5 % over the numeric reference sets, most
where H's own rounding noise exceeds 2 eps) takes Chandrupatla's steps (Adv.
Eng. Softw. 28(3), 1997) from the narrowest bracket its points found, until
it meets that rule or no double lies inside its bracket.  On those sets H
is read 2.0 to 3.7 times per quantile.  Each returned t is certified by its
roundtrip residual |F(t) - u|.

One set of step functions serves two state holders, chosen by point count:
a call with one point holds each value in a float64 scalar and selects with
``_one``, an ``if``; a call with more holds them in arrays, selects with
``np.where`` and carries on with the points still open.  The functions are
built from operators and ufuncs that give the same bits on scalars and
arrays, so a u gets the same t alone or inside any batch.  A one-point call
still reads H on a one-point array, through the same door.
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
_MAX_STEPS = 400  # cap on Chandrupatla steps; a point still open keeps the bracket it began with
_TWO_EPS = 2.0 * np.finfo(float).eps
_Y_FLOOR = -1074.0  # y of the smallest positive t - lo
_LADDERS = 128  # ladders cached: more than the 85 reference sets, so a pass keeps them
# guide cells: 16 to each unit of ln L, from below ln L of u = 2^-1074 (-744.4) to
# above that of u = 1 - 2^-53 (3.6); every edge -745 + k/16 is a double
_GUIDE_LO, _GUIDE_PER, _GUIDE_CELLS = -745.0, 16, 749 * 16
_NODES = np.arange(-2, 2)  # the cubic's rungs, around the bracket [j - 1, j]


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


@lru_cache(maxsize=_LADDERS)
def _guide(family, bits, support):
    """Chen and Asau's guide table over the ladder (AIIE Trans. 6, 1974): entry k
    is the first rung whose ln H reaches the cell edge -745 + k/16.  A function
    of the ladder alone, read-only, 11 985 int32 (47 KB), 6.1 MB for 128."""
    at = _ladder(family, bits, support)
    edges = _GUIDE_LO + np.arange(_GUIDE_CELLS + 1) / _GUIDE_PER
    guide = at.searchsorted(edges).astype(np.int32)
    guide.flags.writeable = False
    return guide


def _find(at, guide, log_l):
    """The first rung j with at[j] >= ln L, as ``searchsorted`` gives it, for each
    ln L: the guide's cell bounds j, and a branch-free binary search over the
    widest cell in use finds it.  Where (ln L + 745) * 16 rounds to an integer,
    ln L may lie just below that edge, so the search starts one cell lower."""
    v = (log_l - _GUIDE_LO) * _GUIDE_PER
    k = v.astype(np.intp)
    j, top = guide[k - (k == v)], guide[k + 1]
    n = int((top - j).max()) + 1  # j ... top holds the rung; past top, at only grows
    while n > 1:
        half = n >> 1
        j += half * (at.take(j + half, mode="clip") < log_l)
        n -= half
    return j + (at.take(j) < log_l)


def _one(c, a, b):
    """``np.where`` for one point."""
    return a if c else b


def _cubic(at, lo, j, log_l):
    """The cubic through rungs j - 2 ... j + 1 that gives y as a function of
    ln H: its value and its slope at ln L, and the rung bracket (y_j-1, y_j)."""
    # the nodes stay on the ladder: an end bracket borrows its neighbour's cubic
    j = min(max(j, 2), at.size - 2) if np.ndim(j) == 0 else np.clip(j, 2, at.size - 2)
    idx = np.add.outer(_NODES, j)
    (a0, a1, a2, a3), (y0, y1, y2, y3) = at[idx], _rung(lo, idx)
    # Newton's divided differences, nodes taken in the order j - 1, j, j - 2, j + 1
    c1 = (y2 - y1) / (a2 - a1)
    c2 = (c1 - (y1 - y0) / (a1 - a0)) / (a2 - a0)
    c3 = (((y3 - y2) / (a3 - a2) - c1) / (a3 - a1) - c2) / (a3 - a0)
    q1, q2, q0 = log_l - a1, log_l - a2, log_l - a0
    inner = c2 + q0 * c3
    return y1 + q1 * (c1 + q2 * inner), c1 + (q1 + q2) * inner + q1 * q2 * c3, (y1, y2)


def _point(x, bracket, to_t, log_l, read, pick):
    """(f, x, t) with f = ln H - ln L, at x held inside the bracket (a NaN x
    lands on its lower edge).  ``read`` is ln H and ``pick`` is ``np.where``
    on the state holder, one float64 or an array."""
    y1, y2 = bracket
    x = pick(x >= y1, pick(x <= y2, x, y2), y1)
    t = to_t(x)
    return read(t) - log_l, x, t


def _secant(first, second):
    """The secant step's x from two points (f, x, t)."""
    (f0, x0, _), (f1, x1, _) = first, second
    return x1 - f1 * (x1 - x0) / (f1 - f0)


def _take(arrays, i):
    """Entries i of each array in a tuple: a point's f, x and t, a bracket, or
    the state of Chandrupatla's steps."""
    return tuple(c[i] for c in arrays)


def _start(at, lo, to_t, j, log_l):
    """The first bracket, rung j - 1 and rung j, as f1 x1 t1 f2 x2 t2."""
    y1, y2 = _rung(lo, j - 1), _rung(lo, j)
    return at[j - 1] - log_l, y1, to_t(y1), at[j] - log_l, y2, to_t(y2)


def _narrow(start, pts, pick):
    """The bracket ``start`` narrowed by points (f, x, t): the largest f below 0
    and the smallest f from 0 on replace the edges they beat.  ``pick`` is
    ``np.where``, or its one-point form."""
    f1, x1, t1, f2, x2, t2 = start
    for f, x, t in pts:
        low, high = (f < 0.0) & (f > f1), (f >= 0.0) & (f < f2)
        f1, x1, t1 = pick(low, f, f1), pick(low, x, x1), pick(low, t, t1)
        f2, x2, t2 = pick(high, f, f2), pick(high, x, x2), pick(high, t, t2)
    return f1, x1, t1, f2, x2, t2


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


def _steps(read, to_t, u, log_u, start, pick):
    """Chandrupatla's steps from ``start``, for one point held in float64 scalars
    or for many in arrays; ``read`` is ln H and ``pick`` is ``np.where`` on the
    holder.  The first step is the secant across ``start``, or the midpoint
    where that is not finite.  A point ends when it meets 2 eps or its bracket
    closes, and returns the edge whose F lies closer to u; one still open after
    _MAX_STEPS steps returns an edge of ``start``."""
    # on float64 scalars count_nonzero, np.isfinite and == on np.bool_ each take
    # about 0.6 us, bool, abs(.) < inf and ^ about 0.05 us (timeit, 2-vCPU x86-64)
    count, n = (bool, 1) if pick is _one else (np.count_nonzero, u.size)
    f1, x1, t1, f2, x2, t2 = start
    f3, x3, ends, log_l, idx = f2, x2, (f1, t1, f2, t2), log_u, None
    tau = f1 / (f1 - f2)
    tau = pick(abs(tau) < math.inf, tau, 0.5)
    for _ in range(_MAX_STEPS):
        x = _trial(x1, x2, tau)
        t = to_t(x)
        f = read(t) - log_l
        flip = (f < 0.0) ^ (f1 < 0.0)  # a sign change: edge 1 becomes edge 2
        f3, x3 = pick(flip, f2, f1), pick(flip, x2, x1)
        f2, x2, t2 = pick(flip, f1, f2), pick(flip, x1, x2), pick(flip, t1, t2)
        f1, x1, t1 = f, x, t
        done = (abs(f) <= _TWO_EPS) | _closed(x1, t1, x2, t2)
        finished = count(done)
        if finished == n and idx is None:  # every point at once, as one point ends
            ends = f1, t1, f2, t2
            break
        if finished:  # some of many points: ends keeps their edges, the rest go on
            if idx is None:
                ends, idx = [e.copy() for e in ends], np.arange(n)
            i = idx[done]
            for e, c in zip(ends, (f1, t1, f2, t2)):
                e[i] = c[done]
            if finished == n:
                break
            f1, x1, t1, f2, x2, t2, f3, x3, log_l, idx = _take(
                (f1, x1, t1, f2, x2, t2, f3, x3, log_l, idx), ~done)
            n -= finished
        allowed, tau = _iqi(f1, x1, f2, x2, f3, x3)
        tau = pick(allowed, tau, 0.5)
    f1, t1, f2, t2 = ends
    return pick(_closer(f1, f2, log_u, u), t1, t2)


@np.errstate(all="ignore")
def _bracketed_root(spec, u):
    """t with ln H(t) = ln(-ln(1 - u)) for each u, to the last double or within 2 eps.

    The cubic start and Newton's step for every point, the secant step for a
    point still more than 2 eps off, Chandrupatla's steps from the narrowest
    bracket found for one still off after that.  One point takes them in
    scalars and returns one float64, more points take them in arrays; the
    formulas are shared, so a point gets the same bits either way."""
    lo, hi = spec.support
    to_t = _to_t(lo)
    key = (spec.family, tuple((k, float(v).hex()) for k, v in spec.params.items()),
           (float(lo).hex(), float(hi).hex()))
    at = _ladder(*key)
    log_u = np.log(-np.log1p(-u))
    span = bounds(log_u)
    if not (math.isfinite(span[0]) and math.isfinite(span[1])):  # exactly 0 < u < 1
        raise DomainError("%s: invert_cdf needs u strictly inside (0, 1)" % spec.family)
    if not span[1] <= at[-1]:
        worst = float(u[~(log_u <= at[-1])].max())
        raise BracketError(
            "%s: no upper bracket for u up to %r after %d doublings (survival mass may "
            "remain at infinity)" % (spec.family, worst, _MAX_DOUBLINGS))
    if u.size == 1:
        j, u, log_u = max(at.searchsorted(log_u[0]), 1), u[0], log_u[0]
        read = lambda t: _log_h(spec, np.array([t]))[0]
        args = (to_t, log_u, read, _one)
        x, slope, bracket = _cubic(at, lo, j, log_u)
        pts = [_point(x, bracket, *args)]
        pts.append(_point(pts[0][1] - pts[0][0] * slope, bracket, *args))
        if not abs(pts[1][0]) <= _TWO_EPS:
            pts.append(_point(_secant(*pts), bracket, *args))
        f, _, t = pts[-1]
        if not abs(f) <= _TWO_EPS:
            start = _narrow(_start(at, lo, to_t, j, log_u), pts, _one)
            t = _steps(read, to_t, u, log_u, start, _one)
    else:
        j = np.maximum(_find(at, _guide(*key), log_u), 1)
        read = lambda t: _log_h(spec, t)
        x, slope, bracket = _cubic(at, lo, j, log_u)
        first = _point(x, bracket, to_t, log_u, read, np.where)
        second = _point(first[1] - first[0] * slope, bracket, to_t, log_u, read, np.where)
        t, open_ = second[2], np.flatnonzero(~(np.abs(second[0]) <= _TWO_EPS))
        if open_.size:  # the secant step, on the points Newton's step left open
            pts = [_take(first, open_), _take(second, open_)]
            pts.append(_point(_secant(*pts), _take(bracket, open_), to_t, log_u[open_], read,
                              np.where))
            t[open_] = pts[-1][2]
            still = np.flatnonzero(~(np.abs(pts[-1][0]) <= _TWO_EPS))
            if still.size:
                pts, open_ = [_take(p, still) for p in pts], open_[still]
                j, u, log_u = j[open_], u[open_], log_u[open_]
                start = _narrow(_start(at, lo, to_t, j, log_u), pts, np.where)
                t[open_] = _steps(read, to_t, u, log_u, start, np.where)
    # an edge past a finite hi has F = 1, as hi itself has
    return np.minimum(t, hi)


def invert_cdf(spec, u, tol=1e-12):
    """Vectorized t with |cdf(spec, t) - u| <= tol for each u in (0, 1).

    tol must be at least 1e-14 (below that the CDF's own rounding noise
    dominates); a smaller or NaN tol raises ValueError."""
    if not tol >= 1e-14:
        raise ValueError("invert_cdf: tol must be >= 1e-14; got %r" % tol)
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

    Solves ln H(t) = ln(-ln(1 - u)), with H the family's own cumulative
    hazard: a cubic start from the cached ladder and Newton and secant steps,
    then Chandrupatla's bracketed method for a u they leave more than 2 eps
    from ln L (see the module docstring).  One u takes the steps in scalars,
    more u take the same steps in arrays, so a u gets the same t either way.
    Returns a QuantileResult on the Numeric path whose roundtrip residual is
    certified <= tol, or raises LambertQError; ``invert_cdf`` gates tol.  The
    reported residual comes from the SF form that ``quantile`` and ``cdf``
    use, on one more H read after the certificate's.
    """
    v, shape = points(u)
    _check_u_open(v, spec)
    t = invert_cdf(spec, v, tol=tol)
    with np.errstate(all="ignore"):
        res = _residual(spec, t, v)
    return QuantileResult(shaped(t, shape), QuantilePath.NUMERIC, shaped(res, shape))

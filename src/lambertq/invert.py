"""Numeric quantile inversion by bracketing bisection plus Newton polish.

Works for every registered family, including the four whose survival
functions admit no closed-form inverse.  The CDF is monotone on the
support, so the algorithm is: expand a bracket geometrically away from
the support infimum until it straddles the target probability (raising
BracketError after 1000 doublings), bisect to floating-point exhaustion,
then polish with damped Newton steps using a central-difference density.
Every returned value is certified by its roundtrip residual |F(t) - u|.
"""

import math

import numpy as np

from .errors import BracketError, LambertQError
from .families import QuantilePath, QuantileResult, cdf, _check_u_open

__all__ = ["numeric_quantile", "invert_cdf"]

_MAX_DOUBLINGS = 1000
_MAX_BISECT = 220  # enough to exhaust double precision from any finite bracket


def _doubling_walk(spec, u, start, anchor, short, side, hint=""):
    """Per-element bracket edge: from start, double each edge's distance from
    anchor while short(F(edge), u) says F has not yet reached u there."""
    edge = np.full(u.shape[0], start)
    need = short(cdf(spec, edge), u)
    for _ in range(_MAX_DOUBLINGS):
        if not need.any():
            return edge
        edge[need] = anchor + (edge[need] - anchor) * 2.0
        need &= short(cdf(spec, edge), u)
    raise BracketError(
        "%s: no %s bracket for u up to %r after %d doublings%s"
        % (spec.family, side, float(u[need].max()), _MAX_DOUBLINGS, hint)
    )


def _expand_bracket(spec, u):
    """Per-element bracket [lo_b, hi_b] with F(lo_b) <= u <= F(hi_b)."""
    lo, hi = spec.support
    n = u.shape[0]

    if math.isfinite(lo):
        lo_b = np.full(n, float(lo))
    else:
        # two-sided support: walk the lower edge down from -1 by doubling
        lo_b = _doubling_walk(spec, u, -1.0, 0.0, np.greater, "lower")

    if math.isfinite(hi):
        hi_b = np.full(n, float(hi))
    else:
        anchor = lo if math.isfinite(lo) else 0.0
        hi_b = _doubling_walk(
            spec, u, anchor + max(1.0, abs(anchor)), anchor, np.less, "upper",
            " (survival mass may remain at infinity)",
        )

    return lo_b, hi_b


def invert_cdf(spec, u, tol=1e-12):
    """Vectorized t with |cdf(spec, t) - u| <= tol for each u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    lo_b, hi_b = _expand_bracket(spec, u)

    # bisection to floating-point exhaustion: stop once no midpoint remains
    # strictly between its bracket edges
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo_b + hi_b)
        open_ = (mid > lo_b) & (mid < hi_b)
        if not open_.any():
            break
        below = cdf(spec, mid) < u
        lo_b = np.where(open_ & below, mid, lo_b)
        hi_b = np.where(open_ & ~below, mid, hi_b)

    t = 0.5 * (lo_b + hi_b)
    res = np.abs(cdf(spec, t) - u)

    # Newton polish with a central-difference density; keep a step only
    # where it actually reduces the residual
    for _ in range(2):
        h = 1e-7 * np.maximum(np.abs(t), 1e-3)
        with np.errstate(all="ignore"):
            dens = (cdf(spec, t + h) - cdf(spec, t - h)) / (2.0 * h)
            step = (cdf(spec, t) - u) / dens
        ok = np.isfinite(step)
        cand = np.where(ok, np.clip(t - step, lo_b, hi_b), t)
        cand_res = np.abs(cdf(spec, cand) - u)
        better = cand_res < res
        t = np.where(better, cand, t)
        res = np.where(better, cand_res, res)

    if float(res.max()) > tol:
        raise LambertQError(
            "%s: numeric inversion reached residual %r, above the requested "
            "tolerance %r" % (spec.family, float(res.max()), tol)
        )
    return t


def numeric_quantile(spec, u, tol=1e-12):
    """Quantile by numeric CDF inversion, for any family.

    Returns a QuantileResult on the Numeric path whose roundtrip residual
    is certified <= tol.  tol must be at least 1e-14 (below that the CDF's
    own rounding noise dominates).
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

"""Standard normal CDF and quantile.

Thin wrappers over SciPy's ``scipy.special.ndtr`` (the CDF, accurate to
a few ulp across the whole real line and saturating cleanly to 0/1 in
the far tails) and ``scipy.special.ndtri`` (its inverse), adding the
library's DomainError checks and float results for scalar arguments.
"""

import math

import numpy as np
from scipy.special import ndtr, ndtri

from ._arrays import bounds
from .errors import DomainError

__all__ = ["std_normal_cdf", "std_normal_quantile"]


def std_normal_cdf(x):
    """P(Z <= x) for standard normal Z; scalar or array in, same shape out."""
    v = np.asarray(x, dtype=float)
    if math.isnan(bounds(v)[0]):  # a NaN anywhere makes the min NaN
        raise DomainError("std_normal_cdf: input must not be NaN")
    out = ndtr(v)
    return float(out) if v.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse of std_normal_cdf on (0, 1)."""
    v = np.asarray(p, dtype=float)
    lo, hi = bounds(v)
    if not (lo > 0.0 and hi < 1.0):  # a NaN fails both
        raise DomainError("std_normal_quantile: p must lie strictly inside (0, 1)")
    out = ndtri(v)
    return float(out) if v.ndim == 0 else out

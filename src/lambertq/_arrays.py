"""The one door for array shapes, and the range the input gates read.

The shape contract: each public entry (``survival``/``cdf``, ``quantile``,
``quantile_values``, ``gm_subtractive_quantile``, ``numeric_quantile``,
``invert_cdf``, the Lambert W entries and the normal functions) reads its
input through ``points`` and returns through ``shaped``.  A float or a 0-d
array gives Python floats (a Lambert W iteration count an int); an array
gives arrays of its own shape.  Formulas and kernels see only float arrays of
at least one dimension, so a point gets the bits it gets inside an array.
"""

import numpy as np


def points(x):
    """x as a float array of at least one dimension, and the shape the result
    takes: a 0-d x is read as one point, and its shape () stays ()."""
    v = np.asarray(x, dtype=float)
    return (v.reshape(1) if v.ndim == 0 else v), v.shape


def shaped(out, shape):
    """A result back in ``shape``, from an array or a one-point scalar: a
    Python number for (), an array of ``shape`` otherwise."""
    out = np.asarray(out)
    return out.reshape(shape) if shape else out.item()


def bounds(v):
    """(min, max) of a float array as Python floats: one ``item()`` on one point,
    one ``min`` and one ``max`` on more.  A NaN anywhere makes both NaN; an empty
    array gives (inf, -inf), the identities of min and max."""
    if v.size == 1:
        return (v.item(),) * 2
    return (float(v.min()), float(v.max())) if v.size else (float("inf"), float("-inf"))

"""The one-point gates: ``bounds`` and the scalar calls that read it.

Every min/max gate a scalar call crosses reads the array's range through
``lambertq._arrays.bounds``, which takes one ``item()`` on a one-point
array.  These tests pin its results and check that a scalar call gives
the bits, and raises the errors, of the same point inside an array.
"""

import math

import numpy as np
import pytest

from lambertq import (
    LambertQError,
    all_reference_specs,
    cdf,
    family_info,
    numeric_quantile,
    quantile,
    std_normal_cdf,
    std_normal_quantile,
    survival,
    validate,
    w_lower,
    w_principal,
    w_principal_from_log,
)
from lambertq._arrays import bounds

INF, NAN = math.inf, math.nan

# the sampler's smallest and largest uniforms, the benchmark's deep-tail
# points, and a spread in between
PROBS = (2.0 ** -1074, 1e-300, 2.0 ** -54, 1e-12, 3e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.3,
         0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 3e-9, 1 - 1e-12, 1 - 2.0 ** -53)


def bits(x):
    return np.asarray(x, dtype=float).ravel().view(np.int64)


def same(x, y):
    return np.array_equal(bits(x), bits(y))


@pytest.mark.parametrize("v,expected", [
    (np.array([0.25]), (0.25, 0.25)),
    (np.array(0.25), (0.25, 0.25)),
    (np.array([[0.25]]), (0.25, 0.25)),
    (np.array([]), (INF, -INF)),
    (np.array([3.0, -1.0, 2.0]), (-1.0, 3.0)),
    (np.array([-INF, 0.0, INF]), (-INF, INF)),
    (np.array([INF]), (INF, INF)),
    (np.array([-INF]), (-INF, -INF)),
])
def test_bounds_values(v, expected):
    lo, hi = bounds(v)
    assert type(lo) is float and type(hi) is float
    assert (lo, hi) == expected


@pytest.mark.parametrize("v", [np.array([NAN]), np.array(NAN), np.array([NAN, 1.0, 2.0]),
                               np.array([1.0, 2.0, NAN]), np.array([-INF, NAN, INF])])
def test_bounds_nan_anywhere_makes_both_nan(v):
    lo, hi = bounds(v)
    assert math.isnan(lo) and math.isnan(hi)


def test_bounds_keeps_the_sign_of_a_one_point_zero():
    lo, hi = bounds(np.array([-0.0]))
    assert math.copysign(1.0, lo) == math.copysign(1.0, hi) == -1.0


def _outcome(fn, x):
    """The value's bits, or the error's type and message."""
    try:
        out = fn(x)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    value = getattr(out, "value", getattr(out, "t", out))
    return "value", tuple(bits(value))


_WEIBULL2 = validate("weibull2", a=1.0, b=2.0)
_XIE_LAI3 = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
_GATED = {
    "quantile": lambda x: quantile(_WEIBULL2, x),
    "numeric_quantile": lambda x: numeric_quantile(_XIE_LAI3, x),
    "w_principal": w_principal,
    "w_lower": w_lower,
    "w_principal_from_log": w_principal_from_log,
    "std_normal_cdf": std_normal_cdf,
    "std_normal_quantile": std_normal_quantile,
}


@pytest.mark.parametrize("name", sorted(_GATED))
@pytest.mark.parametrize("x", [0.0, 1.0, NAN, -0.5, 1.5])
def test_one_point_gate_gives_the_outcome_of_the_two_point_gate(name, x):
    # [x, x] takes the min and max of two points; x, array(x) and [x] read one
    fn = _GATED[name]
    two = _outcome(fn, np.array([x, x]))
    if two[0] != "value":
        assert issubclass(two[0], LambertQError), two
    else:
        two = ("value", two[1][:1])
    for one in (x, np.array(x), np.array([x])):
        assert _outcome(fn, one) == two


@pytest.mark.parametrize("name,x,error", [
    ("quantile", 0.0, "quantile: u must lie strictly inside (0, 1)"),
    ("numeric_quantile", 1.5, "quantile: u must lie strictly inside (0, 1)"),
    ("w_principal", -0.5, "lambert w: x must be >= -1/e (%r); got -0.5" % -math.exp(-1.0)),
    ("w_lower", 0.0, "w_lower: x must be < 0; got 0.0"),
    ("w_lower", NAN, "lambert w: input must be finite"),
    ("w_principal_from_log", NAN, "w_principal_from_log: log_x must not be NaN or +inf; got nan"),
    ("std_normal_cdf", NAN, "std_normal_cdf: input must not be NaN"),
    ("std_normal_quantile", 1.0, "std_normal_quantile: p must lie strictly inside (0, 1)"),
])
def test_one_point_gate_messages(name, x, error):
    kind, message = _outcome(_GATED[name], x)
    assert issubclass(kind, LambertQError) and message == error


def _call(spec):
    return quantile if family_info(spec.family).quantile is not None else numeric_quantile


@pytest.mark.parametrize("spec", all_reference_specs(), ids=lambda s: "%s%s" % (
    s.family, sorted(s.params.values())))
def test_one_point_gives_the_bits_of_the_same_point_in_a_vector(spec):
    call = _call(spec)
    kept, scalar = [], []
    for u in PROBS:
        try:
            res = call(spec, u)
        except LambertQError as exc:
            assert _outcome(lambda x: call(spec, x), np.array([u])) == (type(exc), str(exc)), u
            continue
        # u as a (1,) array, a NumPy scalar and a 0-d array; the residual,
        # formed on first read, is the public cdf's, to the bit, for each
        for other in (np.array([u]), np.float64(u), np.array(u)):
            one = call(spec, other)
            assert same(res.t, one.t) and same(res.roundtrip_residual, one.roundtrip_residual), u
            assert np.shape(one.roundtrip_residual) == np.shape(other), u
        assert same(survival(spec, res.t), survival(spec, one.t)), u
        assert same(res.roundtrip_residual, abs(cdf(spec, res.t) - u)), u
        kept.append(u)
        scalar.append(res)
    assert len(kept) >= len(PROBS) - 6, kept
    vec = call(spec, np.array(kept))
    assert same(vec.roundtrip_residual, np.abs(cdf(spec, vec.t) - np.array(kept)))
    grid = np.array(kept[:6]).reshape(2, 3)
    two = call(spec, grid)
    assert two.roundtrip_residual.shape == (2, 3)
    assert same(two.roundtrip_residual, np.abs(cdf(spec, two.t) - grid))
    sf = survival(spec, vec.t)
    for i, res in enumerate(scalar):
        assert same(res.t, vec.t[i]), (kept[i], res.t, vec.t[i])
        assert same(res.roundtrip_residual, vec.roundtrip_residual[i]), kept[i]
        assert same(survival(spec, res.t), sf[i]), kept[i]

"""Tests for the real branches of the Lambert W function.

Expected values marked "oracle" are recomputed in-test by sign-based
bisection on w * exp(w) = x (see conftest.bisect), which shares no code
with the iteration under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import bisect
from hypothesis import given, settings
from hypothesis import strategies as st

from lambertq import (
    Branch,
    DomainError,
    WEvaluation,
    lambertw,
    sample,
    sampling,
    tree_t,
    validate,
    w_lower,
    w_principal,
    w_principal_from_log,
    w_series,
)

E = math.e
BRANCH_POINT = -1.0 / E


def identity_residual(w, x):
    return abs(w * math.exp(w) - x) / max(abs(x), 1.0)


# ---------------------------------------------------------------------------
# principal branch

def test_principal_at_zero_is_exact():
    res = w_principal(0.0)
    assert res.value == 0.0
    assert res.residual == 0.0


def test_principal_at_e_is_one():
    assert w_principal(E).value == pytest.approx(1.0, abs=1e-15)


def test_principal_omega_matches_bisection_oracle():
    omega = bisect(lambda w: w * math.exp(w) - 1.0, 0.0, 1.0)
    assert omega == pytest.approx(0.5671432904097837, abs=1e-15)  # frozen oracle value
    assert w_principal(1.0).value == pytest.approx(omega, rel=5e-14)


def test_principal_branch_point_value():
    res = w_principal(BRANCH_POINT)
    assert res.value == pytest.approx(-1.0, abs=1e-8)
    assert res.iterations == 0  # expansion window: no iteration applied


def test_principal_returns_evaluation_fields():
    res = w_principal(2.5)
    assert isinstance(res, WEvaluation)
    assert identity_residual(res.value, 2.5) <= 1e-15
    assert res.residual <= 1e-14
    assert 0 <= res.iterations <= 50


def test_principal_array_shape_and_values():
    x = np.array([0.0, 1.0, E, 10.0])
    res = w_principal(x)
    assert res.value.shape == x.shape
    got = res.value * np.exp(res.value)
    np.testing.assert_allclose(got, x, rtol=0, atol=1e-14)


def test_principal_clamps_tiny_under_branch_point():
    # quantile formulas can land an ulp below -1/e; that must not error
    res = w_principal(BRANCH_POINT - 1e-16)
    assert res.value == pytest.approx(-1.0, abs=1e-7)


def test_principal_domain_error_below_clamp():
    with pytest.raises(DomainError):
        w_principal(BRANCH_POINT - 1e-10)


def test_principal_rejects_nan():
    with pytest.raises(DomainError):
        w_principal(float("nan"))


def test_principal_identity_wide_range():
    x = np.geomspace(1e-300, 1e8, 20001)
    res = w_principal(x)
    rel = np.abs(res.value * np.exp(res.value) - x) / np.maximum(np.abs(x), 1.0)
    assert rel.max() <= 1e-12


def test_principal_identity_huge_arguments():
    # the asymptotic start + log-domain care must hold out to overflow edge
    x = np.geomspace(1e8, 1e300, 4001)
    res = w_principal(x)
    assert np.max(res.residual) <= 1e-12
    # w*e^w overflows for x this large; check in log space instead
    lhs = res.value + np.log(res.value)
    rel = np.abs(lhs - np.log(x)) / res.value
    assert rel.max() <= 1e-14


def test_principal_monotone_strict():
    x = np.unique(
        np.concatenate(
            (
                np.linspace(BRANCH_POINT + 1e-9, 0.3, 4000),
                np.geomspace(0.3, 1e12, 4000),
            )
        )
    )
    w = w_principal(x).value
    assert np.all(np.diff(w) > 0)


def test_principal_residual_policy():
    inside = np.linspace(BRANCH_POINT + 2e-6, 1.0, 1000)
    res = w_principal(inside)
    assert res.residual.max() <= 1e-12
    near = BRANCH_POINT + 1e-7
    assert w_principal(near).residual <= 1e-6


def test_derivative_identity():
    # dW/dx = W / (x (1 + W)), checked by central differences
    for x in np.geomspace(0.1, 100.0, 200):
        h = 1e-6 * max(1.0, abs(x))
        num = (w_principal(x + h).value - w_principal(x - h).value) / (2.0 * h)
        w = w_principal(x).value
        exact = w / (x * (1.0 + w))
        assert num == pytest.approx(exact, rel=1e-6)


# ---------------------------------------------------------------------------
# lower branch

def test_lower_at_branch_point():
    assert w_lower(BRANCH_POINT).value == pytest.approx(-1.0, abs=1e-8)


def test_lower_known_value_minus_two():
    x = -2.0 * math.exp(-2.0)
    assert w_lower(x).value == pytest.approx(-2.0, abs=1e-13)


def test_lower_matches_bisection_oracle():
    oracle = bisect(lambda w: w * math.exp(w) + 0.1, -20.0, -1.0)
    assert oracle == pytest.approx(-3.577152063957297, abs=1e-14)  # frozen oracle value
    assert w_lower(-0.1).value == pytest.approx(oracle, rel=1e-13)


def test_lower_identity_and_range():
    x = -np.geomspace(1e-300, 1.0 / E - 1e-9, 5000)
    res = w_lower(x)
    assert np.all(res.value <= -1.0)
    rel = np.abs(res.value * np.exp(res.value) - x) / np.maximum(np.abs(x), 1.0)
    assert rel.max() <= 1e-12
    # w*e^w underflows with x, so the check above cannot see errors at tiny
    # |x|; the log form ln(-w) + w = ln(-x) is relative at every scale
    log_x = np.log(-x)
    log_rel = np.abs(np.log(-res.value) + res.value - log_x) / np.maximum(np.abs(log_x), 1.0)
    assert log_rel.max() <= 1e-14


def test_lower_monotone_decreasing():
    x = np.linspace(BRANCH_POINT + 1e-9, -1e-9, 5000)
    w = w_lower(x).value
    assert np.all(np.diff(w) < 0)


def test_lower_rejects_nonnegative_and_below_branch():
    with pytest.raises(DomainError):
        w_lower(0.0)
    with pytest.raises(DomainError):
        w_lower(0.1)
    with pytest.raises(DomainError):
        w_lower(BRANCH_POINT - 1e-10)


def test_branches_agree_at_branch_point():
    a = w_principal(BRANCH_POINT).value
    b = w_lower(BRANCH_POINT).value
    assert abs(a - b) <= 1e-7
    assert a == pytest.approx(-1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# series

def test_series_zero_is_zero():
    for n in (1, 7, 30):
        assert w_series(0.0, n) == 0.0


def test_series_three_terms_explicit():
    # x - x^2 + (3/2) x^3 at x = 0.1
    assert w_series(0.1, 3) == pytest.approx(0.0915, abs=1e-15)


def test_series_twenty_terms_near_w():
    # 20 terms at x=0.1 sit within the residual tail of W itself
    assert w_series(0.1, 20) == pytest.approx(0.09127652716086226, abs=1e-13)


def test_series_matches_exact_rational_partial_sum():
    # coefficients (-n)^(n-1)/n! summed exactly over the rationals
    x = Fraction(1, 10)
    total = Fraction(0)
    for n in range(1, 21):
        c = Fraction((-n) ** (n - 1), math.factorial(n))
        total += c * x ** n
    assert w_series(0.1, 20) == pytest.approx(float(total), abs=5e-16)


def test_series_consistency_small_x():
    x = np.linspace(-0.05, 0.05, 1001)
    diff = np.abs(w_series(x, 20) - w_principal(x).value)
    assert diff.max() <= 1e-13


def test_series_domain_and_term_count_errors():
    with pytest.raises(DomainError):
        w_series(1.0 / E, 10)
    with pytest.raises(DomainError):
        w_series(-1.0 / E, 10)
    with pytest.raises(ValueError):
        w_series(0.1, 0)
    with pytest.raises(ValueError):
        w_series(0.1, 31)


# ---------------------------------------------------------------------------
# tree function T(x) = -W(-x)

def test_tree_values():
    assert tree_t(0.0) == 0.0
    assert tree_t(-E) == pytest.approx(-1.0, abs=1e-15)
    assert tree_t(1.0 / E) == pytest.approx(1.0, abs=1e-8)


def test_tree_identity():
    # T satisfies T = x * e^T
    x = np.linspace(-5.0, 1.0 / E - 1e-9, 2001)
    t = tree_t(x)
    np.testing.assert_allclose(t, x * np.exp(t), rtol=0, atol=1e-13)


def test_tree_domain_error():
    with pytest.raises(DomainError):
        tree_t(1.0 / E + 1e-9)


# ---------------------------------------------------------------------------
# batch independence: each start is built only where the block has points in
# its regime, so a point's result must not depend on its neighbours

PRINCIPAL_MIX = np.array([
    BRANCH_POINT - 5e-16, BRANCH_POINT, BRANCH_POINT + 1e-7,  # clamp, window
    BRANCH_POINT + 1e-5, BRANCH_POINT + 2e-5,                 # window edge
    -0.3, np.nextafter(-0.27, -1.0), -0.27, -0.26,            # -0.27 split
    -0.2, -1e-300, -0.0, 0.0, 5e-324, 1e-10, 0.5, 1.0,
    np.nextafter(E, 0.0), E, np.nextafter(E, 3.0), 10.0,      # e split
    1e10, 1e300, np.finfo(float).max,
])
LOWER_MIX = np.array([
    BRANCH_POINT - 5e-16, BRANCH_POINT, BRANCH_POINT + 1e-7,
    BRANCH_POINT + 1e-5, BRANCH_POINT + 2e-5, -0.3,
    np.nextafter(-0.2, -1.0), -0.2, np.nextafter(-0.2, 0.0),  # -0.2 split
    -0.1, -1e-10, -1e-300, -5e-324,
])


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("w, x", [(w_principal, PRINCIPAL_MIX), (w_lower, LOWER_MIX)],
                         ids=["principal", "lower"])
def test_each_array_element_equals_its_scalar_evaluation(w, x):
    batch = w(x)
    assert set(batch.iterations.tolist()) == {0, 2}
    for i, xi in enumerate(x):
        one = w(float(xi))
        assert _bits(batch.value[i]) == _bits(one.value), xi
        assert _bits(batch.residual[i]) == _bits(one.residual), xi
        assert batch.iterations[i] == one.iterations, xi


def test_each_tree_element_equals_its_scalar_evaluation():
    x = -PRINCIPAL_MIX  # from 1/e + 5e-16, past the clamp, down to -max double
    batch = tree_t(x)
    for i, xi in enumerate(x):
        assert _bits(batch[i]) == _bits(tree_t(float(xi))), xi


def _fields(out):
    return (out.value, out.residual, out.iterations) if isinstance(out, WEvaluation) else (out,)


@pytest.mark.parametrize("f, x", [(w_principal, 0.3), (w_lower, -0.1), (tree_t, 0.2),
                                  (w_principal_from_log, 800.0)],
                         ids=["principal", "lower", "tree", "from_log"])
def test_one_element_arrays_keep_their_shape_and_dtype(f, x):
    # a one-point call solves in scalars; a 0-d input gets Python scalars back
    # and an array input arrays of its own shape
    flat = _fields(f(x))
    assert all(type(want) in (float, int) for want in flat)
    for shape in ((1,), (1, 1)):
        for got, want in zip(_fields(f(np.full(shape, x))), flat):
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert got.dtype == np.asarray(want).dtype and got.item() == want


# x over each domain: the clamp, the branch-point window, the start splits,
# +-0, subnormals and up to the largest double
def _around(*splits):
    return [v for c in splits for v in (np.nextafter(c, -1.0), c, np.nextafter(c, 9.0))]


W0_DOMAIN = st.one_of(
    st.floats(BRANCH_POINT - 1e-15, BRANCH_POINT + 2e-5),
    st.floats(-0.3, 3.0),
    st.sampled_from(_around(-0.27, E) + [-0.0, 0.0, 5e-324, -5e-324]),
    st.floats(-0.36, 0.0),
    st.floats(-324.0, 308.0).map(lambda e: 10.0 ** e),
    st.floats(0.0, np.finfo(float).max),
)
W_LOWER_DOMAIN = st.one_of(
    st.floats(BRANCH_POINT - 1e-15, BRANCH_POINT + 2e-5),
    st.sampled_from(_around(-0.2) + [-5e-324]),
    st.floats(-0.36, -5e-324),
    st.floats(-323.0, -0.44).map(lambda e: -(10.0 ** e)),
)
LOG_MIX = np.array([-np.inf, -800.0, 0.0, 700.0, np.nextafter(700.0, 800.0), 3e4, 1e300, 1e305])
LOG_DOMAIN = st.one_of(
    st.just(-np.inf),
    st.floats(-800.0, 800.0),
    st.floats(-10.0, 305.0).map(lambda e: 10.0 ** e),
    st.floats(-1e305, -800.0),
)


@pytest.mark.usefixtures("hypothesis_home")
@pytest.mark.parametrize("f, mix, domain", [
    (w_principal, PRINCIPAL_MIX, W0_DOMAIN),
    (w_lower, LOWER_MIX, W_LOWER_DOMAIN),
    (tree_t, -PRINCIPAL_MIX, W0_DOMAIN.map(lambda x: -x)),
    (w_principal_from_log, LOG_MIX, LOG_DOMAIN),
], ids=["principal", "lower", "tree", "from_log"])
def test_one_point_gives_the_bits_it_gets_in_a_batch(f, mix, domain):
    # a one-point call takes the scalar solver, a batch the array solver
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(domain)
    def check(x):
        batch, one, scalar = (_fields(f(a)) for a in (np.append(mix, x), np.array([x]), x))
        for b, o, s in zip(batch, one, scalar):
            assert _bits(s) == _bits(o) == _bits(b[-1]), x

    check()


@pytest.mark.parametrize("w, x", [(w_principal, PRINCIPAL_MIX), (w_lower, LOWER_MIX)],
                         ids=["principal", "lower"])
def test_two_dimensional_input_keeps_its_shape(w, x):
    grid = np.stack([x, x[::-1]])
    out, flat = w(grid), w(grid.ravel())
    for field in ("value", "residual", "iterations"):
        assert getattr(out, field).shape == grid.shape
        assert _bits(getattr(out, field).ravel()) == _bits(getattr(flat, field))


def test_empty_arrays_give_empty_results():
    empty = np.array([])
    for w in (w_principal, w_lower):
        out = w(empty)
        assert out.value.shape == out.residual.shape == out.iterations.shape == (0,)
        assert out.iterations.dtype == np.int64
    assert tree_t(empty).shape == (0,)
    assert w_principal_from_log(empty).shape == (0,)


# ---------------------------------------------------------------------------
# log-domain evaluation

def test_from_log_matches_direct_for_moderate_inputs():
    lx = np.linspace(-600.0, 600.0, 1201)
    w = w_principal_from_log(lx)
    direct = w_principal(np.exp(lx)).value
    np.testing.assert_allclose(w, direct, rtol=1e-14, atol=1e-300)


def test_from_log_identity_beyond_overflow():
    # arguments e^L with L up to 30000: check w + ln w = L
    lx = np.geomspace(700.0, 30000.0, 500)
    w = w_principal_from_log(lx)
    assert np.abs(w + np.log(w) - lx).max() <= 1e-10 * lx.max()


def test_from_log_monotone():
    lx = np.linspace(-50.0, 5000.0, 10001)
    w = w_principal_from_log(lx)
    assert np.all(np.diff(w) > 0)


def test_from_log_is_finite_up_to_the_largest_double():
    # 2(1 + w) inside a refinement step overflows above ~9e307; there the
    # asymptotic start is already exact, so w + ln w = L holds to the last bit
    lx = np.array([1e300, 1e305, 9e307, np.finfo(float).max])
    w = w_principal_from_log(lx)
    assert np.all(np.isfinite(w))
    assert np.all(w + np.log(w) == lx)
    assert math.isfinite(w_principal_from_log(np.finfo(float).max))


def test_from_log_elements_equal_their_scalar_evaluation():
    batch = w_principal_from_log(LOG_MIX)
    assert batch[0] == 0.0
    for i, li in enumerate(LOG_MIX):
        assert _bits(batch[i]) == _bits(w_principal_from_log(float(li))), li


@pytest.mark.parametrize("bad", [math.nan, math.inf, [1.0, math.nan], [-math.inf, math.inf]],
                         ids=["nan", "inf", "nan-in-array", "inf-in-array"])
def test_from_log_rejects_nan_and_plus_inf(bad):
    with pytest.raises(DomainError):
        w_principal_from_log(bad)


# ---------------------------------------------------------------------------
# the refinement step and the residual on first read

def _textbook_refine(w, log_x):
    # the step in its textbook operator order, the reference the in-place
    # signs-flipped step in lambertw._refine must match bit for bit
    for _ in range(2):
        z = log_x - np.log(np.abs(w)) - w
        r = z / (1.0 + w)
        q = 2.0 * (1.0 + w + (2.0 / 3.0) * z)
        w = w * (1.0 + r * (q - r) / (q - 2.0 * r))
    return w


def _starts(x, lx):
    # every start formula at every x, inside its regime and out of it
    return [np.log1p(x), lambertw._asymptotic(lx), lambertw._lower_asymptotic(lx),
            lambertw._branch_start(x, Branch.PRINCIPAL), lambertw._branch_start(x, Branch.LOWER)]


def _zero_z_points():
    # (w, ln|x|) where ln|x| - ln|w| - w is exactly 0 in floating point
    w = np.concatenate([[1.0, -1.0, -2.0, 0.5, 3.0], np.linspace(-30.0, 30.0, 601)])
    w = w[w != 0.0]
    lx = np.log(np.abs(w)) + w
    exact = lx - np.log(np.abs(w)) - w == 0.0
    return w[exact], lx[exact]


def _refine_cases():
    ws, lxs = [], []
    for mix in (PRINCIPAL_MIX, LOWER_MIX):
        lx = np.log(np.abs(mix))
        for start in _starts(mix, lx):
            ws.append(start)
            lxs.append(lx)
    lx = LOG_MIX
    for start in _starts(np.exp(lx), lx):
        ws.append(start)
        lxs.append(lx)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, np.nan,
                        -np.nan, -1.0, 1.0])
    for lx in (0.0, -0.0, 1.0, -700.0, 1e300, np.inf, -np.inf, np.nan):
        ws.append(special)
        lxs.append(np.full(special.shape, lx))
    ws.append(np.full(LOG_MIX.shape, np.nan))
    lxs.append(LOG_MIX)
    w, lx = _zero_z_points()
    assert w.size > 100
    ws.append(w)
    lxs.append(lx)
    return np.concatenate(ws), np.concatenate(lxs)


def _bits_but_nan(a):
    # IEEE 754 leaves the sign and payload of a NaN result unspecified, and
    # NumPy's scalar and array loops pass on different operands' NaNs (the
    # textbook step itself gives -NaN on an array and +NaN on a scalar at
    # w = ln|x| = 0), so every NaN counts as one pattern
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _assert_refine_matches_textbook(w, lx):
    with np.errstate(all="ignore"):
        got, want = lambertw._refine(w, lx), _textbook_refine(w, lx)
        assert _bits_but_nan(got) == _bits_but_nan(want)
        for wi, li, gi in zip(w, lx, got):
            one = lambertw._refine(np.float64(wi), np.float64(li))
            assert isinstance(one, np.float64)
            want = _textbook_refine(np.float64(wi), np.float64(li))
            assert _bits_but_nan(one) == _bits_but_nan(want) == _bits_but_nan(gi), (wi, li)


def test_refine_matches_the_textbook_step_bit_for_bit():
    # self-consistency: the same step in two operator orders, on arrays and on
    # float64 scalars, from every start over the mixes, at +-0, subnormal w,
    # +-inf, NaN, w = -1 and where z is exactly 0
    with np.errstate(all="ignore"):
        cases = _refine_cases()
    _assert_refine_matches_textbook(*cases)


@pytest.mark.usefixtures("hypothesis_home")
def test_refine_matches_the_textbook_step_on_drawn_points():
    # self-consistency, as above, on drawn (w, ln|x|) pairs
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats()), min_size=2, max_size=8))
    def check(pairs):
        _assert_refine_matches_textbook(*np.array(pairs).T.copy())

    check()


def _recomputed_residual(out, x):
    # |w*exp(w) - x_c| / max(|x_c|, 1e-300) from the returned value and the clamped x
    x_c = np.maximum(np.asarray(x, dtype=float), BRANCH_POINT)
    with np.errstate(all="ignore"):
        return np.abs(out.value * np.exp(out.value) - x_c) / np.maximum(np.abs(x_c), 1e-300)


@pytest.mark.parametrize("w, x", [(w_principal, PRINCIPAL_MIX), (w_lower, LOWER_MIX)],
                         ids=["principal", "lower"])
def test_residual_is_the_identity_residual_of_the_returned_value(w, x):
    # the residual is formed on first read, from the value and the clamped x;
    # x reaches 5e-16 below -1/e, and 1e-15 below it is added here
    x = np.append(x, BRANCH_POINT - 1e-15)
    for arg in (float(x[3]), np.array(x[3]), x[:1], x, np.stack([x, x[::-1]]), x[:0]):
        out = w(arg)
        want = _recomputed_residual(out, arg)
        assert _bits(out.residual) == _bits(want)
        assert np.shape(out.residual) == np.shape(arg)
        assert out.residual is out.residual  # kept after the first read
    for xi in x:
        out = w(float(xi))
        assert type(out.residual) is float
        assert _bits(out.residual) == _bits(_recomputed_residual(out, xi)), xi


def test_residual_reads_the_argument_as_it_was_at_the_call():
    x = np.array([0.5, 2.0, 10.0])
    out = w_principal(x)
    want = _recomputed_residual(out, x.copy())
    x[:] = 1.0
    assert _bits(out.residual) == _bits(want)


def test_sample_of_a_w0_set_never_forms_the_residual(monkeypatch):
    def refuse(*args):
        raise AssertionError("the identity residual was formed")

    monkeypatch.setattr(lambertw, "_identity_residual", refuse)
    n = 2 * sampling._BLOCK + 17
    out = sample(validate("lai_weibull3", a=1.0, b=1.0, c=1.0), n, seed=1)
    assert out.values.shape == (n,)
    with pytest.raises(AssertionError):
        w_principal(np.array([0.5, 1.0])).residual

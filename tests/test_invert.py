"""Tests for bracketed numeric CDF inversion (the quantile oracle)."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from conftest import bisect

from lambertq import (
    BracketError,
    DomainError,
    LambertQError,
    QuantilePath,
    all_reference_specs,
    cdf,
    counter_uniforms,
    invert_cdf,
    numeric_quantile,
    quantile,
    quantile_values,
    reference_specs,
    sample,
    survival,
    validate,
)
from lambertq import families, invert

NUMERIC_ONLY = ("additive_weibull", "nadarajah_kotz", "phani5", "xie_lai3")
# phani5 with an infinite density at t = a: next to a, F moves by more than
# 1e-12 between neighbouring doubles, so no double certifies u = 3e-9 or 1e-6
STEEP_PHANI5 = dict(a=0.5, b=2.0, c=2.0, d=0.5, e=1.5)


def test_weibull2_median_certified():
    spec = validate("weibull2", a=1.0, b=1.0)
    res = numeric_quantile(spec, 0.5, tol=1e-12)
    assert res.t == pytest.approx(math.log(2.0), abs=1e-12)
    assert res.path is QuantilePath.NUMERIC
    assert res.roundtrip_residual <= 1e-12


def test_additive_weibull_median_matches_bisection_oracle():
    # a=1,b=2,c=1,d=0.5 gives SF = exp(-t^2 - sqrt(t)), so the median
    # solves t^2 + sqrt(t) = ln 2
    root = bisect(lambda t: t * t + math.sqrt(t) - math.log(2.0), 0.0, 1.0)
    assert root == pytest.approx(0.3363884162826468, abs=1e-15)  # frozen oracle value
    spec = validate("additive_weibull", a=1.0, b=2.0, c=1.0, d=0.5)
    assert numeric_quantile(spec, 0.5, tol=1e-12).t == pytest.approx(root, abs=1e-12)


def test_xie_lai3_self_certifying_residuals():
    spec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    u = np.linspace(0.01, 0.99, 99)
    res = numeric_quantile(spec, u, tol=1e-12)
    assert np.max(res.roundtrip_residual) <= 1e-12
    assert np.all(np.diff(res.t) > 0)


def test_numeric_only_families_invert_cleanly():
    params = {
        "additive_weibull": dict(a=1.0, b=2.0, c=1.0, d=0.5),
        "nadarajah_kotz": dict(a=1.0, b=1.0, c=1.0, d=1.0),
        "phani5": dict(a=0.0, b=2.0, c=1.0, d=1.0, e=1.0),
        "xie_lai3": dict(a=1.0, b=2.0, c=1.0),
    }
    for name in NUMERIC_ONLY:
        spec = validate(name, **params[name])
        u = np.array([0.001, 0.1, 0.5, 0.9, 0.999])
        res = numeric_quantile(spec, u, tol=1e-12)
        assert np.max(res.roundtrip_residual) <= 1e-12, name


def test_matches_analytic_path():
    spec = validate("lai_weibull3", a=1.0, b=0.5, c=2.0)
    u = np.linspace(0.05, 0.95, 19)
    t_num = numeric_quantile(spec, u, tol=1e-12).t
    t_ana = quantile_values(spec, u)
    rel = np.abs(t_num - t_ana) / np.maximum(1.0, np.abs(t_ana))
    assert rel.max() <= 1e-8


def test_two_sided_support_brackets_negative_roots():
    # location a=3, scale b=2: low u give negative quantiles
    spec = validate("trunc_log_weibull", a=3.0, b=2.0)
    res = numeric_quantile(spec, 0.001, tol=1e-12)
    assert res.t < 0.0
    assert abs(cdf(spec, res.t) - 0.001) <= 1e-12


def test_finite_upper_support_bracket():
    spec = validate("kies4", a=0.5, b=2.0, c=1.0, d=0.7)
    res = numeric_quantile(spec, 0.999, tol=1e-12)
    assert 0.5 < res.t < 2.0
    assert res.roundtrip_residual <= 1e-12


def test_finite_hi_quantiles_stay_in_the_closed_support():
    # the ladder's last rung lies past a finite hi, since lo + 2^log2(hi - lo)
    # can round below it; an edge past hi has F = 1, as hi has, and comes
    # back as hi.  In the extra gen_weibull set 2^log2(hi) < hi, and no double
    # below hi certifies u (F one ulp below hi is 1 - 6e-10)
    specs = [spec for name in ("gen_weibull", "kies4", "phani5") for spec in reference_specs(name)]
    specs.append(validate("gen_weibull", a=2.3279001524585943, b=0.8474222997726494,
                          c=1.6990499891151583))
    for spec in specs:
        lo, hi = spec.support
        for u in (1.0 - 1e-12, 1.0 - 2.0 ** -53):
            res = numeric_quantile(spec, u, tol=1e-12)
            assert lo <= res.t <= hi and res.roundtrip_residual <= 1e-12, (spec.params, u, res)


def test_tolerance_floor_enforced():
    spec = validate("weibull2", a=1.0, b=1.0)
    with pytest.raises(ValueError):
        numeric_quantile(spec, 0.5, tol=1e-15)


def test_invert_cdf_rejects_a_tol_below_the_floor():
    # a NaN, negative or too small tol is the caller's error, not a numeric
    # failure: invert_cdf raises ValueError before it inverts anything
    spec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    for tol in (math.nan, -1.0, 1e-15):
        with pytest.raises(ValueError, match="tol must be >= 1e-14"):
            invert_cdf(spec, 0.3, tol=tol)


def test_nan_residual_is_not_certified():
    # (b/c) expm1(c t) is 0 * inf once b/c underflows, so F is NaN next to
    # the root; a NaN residual must not pass the certificate
    spec = validate("gompertz_makeham", a=1e-300, b=1e-300, c=1e300)
    try:
        res = numeric_quantile(spec, 0.5)
    except LambertQError:
        return
    assert math.isfinite(res.t) and res.roundtrip_residual <= 1e-12, res


def test_u_endpoints_rejected():
    spec = validate("weibull2", a=1.0, b=1.0)
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            numeric_quantile(spec, bad)


@pytest.mark.parametrize("bad", [0.0, -0.0, 1.0, math.nan, -0.5, 1.5])
def test_invert_cdf_rejects_u_outside_the_open_interval(bad):
    # u = 0 and u = 1 used to come back as t = 5e-324 and t = 1.3e154, certified
    spec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    with pytest.raises(DomainError, match="strictly inside"):
        invert_cdf(spec, np.array([0.5, bad]))


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("family,params", [("xie_lai3", dict(a=1.0, b=2.0, c=1.0)),
                                           ("weibull2", dict(a=1.0, b=1.0))])
def test_many_dimensional_u_keeps_its_shape_and_the_flat_bits(shape, family, params):
    spec = validate(family, **params)
    u = np.array([0.3, 1e-9, 0.5, 1.0 - 1e-12])[:math.prod(shape)].reshape(shape)
    flat = numeric_quantile(spec, u.ravel())
    res = numeric_quantile(spec, u)
    t = invert_cdf(spec, u)
    assert res.t.shape == res.roundtrip_residual.shape == t.shape == shape
    np.testing.assert_array_equal(res.t.view(np.int64), flat.t.reshape(shape).view(np.int64))
    np.testing.assert_array_equal(res.roundtrip_residual.view(np.int64),
                                  flat.roundtrip_residual.reshape(shape).view(np.int64))
    np.testing.assert_array_equal(t.view(np.int64), flat.t.reshape(shape).view(np.int64))


def test_empty_input_gives_empty_results():
    spec = reference_specs("xie_lai3")[0]
    t = invert_cdf(spec, np.array([]))
    assert isinstance(t, np.ndarray) and t.shape == (0,)
    res = numeric_quantile(spec, np.array([]))
    assert res.t.shape == res.roundtrip_residual.shape == (0,)
    assert res.path is QuantilePath.NUMERIC


def test_defective_mass_raises_bracket_error():
    # Gompertz with b < 0 saturates F at u_max < 1; asking invert_cdf
    # directly for u above that can never find an upper bracket
    spec = validate("gompertz2", a=1.0, b=-1.0)
    assert spec.u_max < 0.9
    with pytest.raises(BracketError):
        invert_cdf(spec, np.array([0.9]), tol=1e-12)


def test_defective_mass_guarded_at_quantile_level():
    spec = validate("gompertz2", a=1.0, b=-1.0)
    with pytest.raises(DomainError):
        numeric_quantile(spec, 0.9)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the 1e-12 residual certifies t = 3.2e149, where F rounds to "
    "1; the root, 3.59e355, lies beyond the largest double"))
def test_root_beyond_the_largest_double_raises_bracket_error():
    # quantile raises BracketError at this u; the numeric route must not certify
    # a t where H is far below -ln(1 - u)
    spec = validate("exp_inv_weibull", a=0.12635790436860173, b=0.015615364823965623,
                    c=2.158812584796944)
    with pytest.raises(BracketError):
        quantile(spec, 1.0 - 1e-12)
    with pytest.raises(BracketError):
        numeric_quantile(spec, 1.0 - 1e-12)


@pytest.mark.parametrize("u", [2.0 ** -1074, 2.0 ** -54, 1e-12, 3e-9, 1e-6, 1.0 - 1e-12,
                               1.0 - 2.0 ** -53])
def test_tail_probabilities_give_certified_quantile_or_typed_error(u):
    # the smallest double, the sampler's extreme uniforms and the deep tails:
    # a certified t inside the support, or LambertQError; only the steep
    # phani5 set may raise, and only where no double certifies u
    for name in NUMERIC_ONLY:
        for spec in reference_specs(name):
            lo, hi = spec.support
            try:
                res = numeric_quantile(spec, u, tol=1e-12)
            except LambertQError:
                assert spec.params == STEEP_PHANI5 and u in (3e-9, 1e-6), (name, spec.params)
                continue
            assert lo <= res.t < hi, (name, spec.params, res.t)
            assert res.roundtrip_residual <= 1e-12, (name, spec.params)


# the test's own cumulative hazards, H(x) with x = t - lo, for the numeric-only
# families
_ORACLE_H = {
    "additive_weibull": lambda x, p: p["a"] * x ** p["b"] + p["c"] * x ** p["d"],
    "nadarajah_kotz": lambda x, p: p["a"] * x ** p["b"] * math.expm1(p["c"] * x ** p["d"]),
    "phani5": lambda x, p: p["c"] * x ** p["d"] / (p["b"] - p["a"] - x) ** p["e"],
    "xie_lai3": lambda x, p: (p["a"] * x) ** p["b"] + (p["a"] * x) ** (1.0 / p["b"]) + p["c"] * x,
}


def _oracle_gap(spec, u):
    """ln H - ln L at x = e^s, from the oracle's H: bisected in ln x, as roots are tiny."""
    log_l = math.log(-math.log1p(-u))
    lo, hi = spec.support
    h = _ORACLE_H[spec.family]

    def g(s):
        x = math.exp(s)
        if lo + x >= hi:
            return math.inf
        try:
            hx = h(x, spec.params)
        except OverflowError:
            return math.inf
        return (math.log(hx) if hx > 0.0 else -math.inf) - log_l

    return g


def _assert_matches_bisection_oracle(u):
    # t - lo within 1e-13 relative of the oracle root (or within one double
    # of t, where doubles next to lo are coarser than that)
    for name in NUMERIC_ONLY:
        for spec in reference_specs(name):
            lo, hi = spec.support
            g = _oracle_gap(spec, u)
            x = math.exp(bisect(g, -700.0, math.log(hi - lo if hi < math.inf else 1e3)))
            try:
                t = numeric_quantile(spec, u, tol=1e-12).t
            except LambertQError:
                assert spec.params == STEEP_PHANI5 and u in (3e-9, 1e-6), (name, spec.params)
                continue
            bound = max(1e-13 * x, np.spacing(lo + x))
            assert abs((t - lo) - x) <= bound, (name, spec.params, u, t, x)


@pytest.mark.parametrize("u", [2.0 ** -54, 1e-12, 3e-9, 1e-6])
def test_lower_tail_quantiles_match_bisection_oracle(u):
    # where SF rounds to 1, -ln SF is a step function; the inverter must
    # still resolve t - lo
    _assert_matches_bisection_oracle(u)


@pytest.mark.parametrize("u", [0.5, 1.0 - 1e-6, 1.0 - 3e-9, 1.0 - 1e-12, 1.0 - 2.0 ** -53])
def test_middle_and_upper_tail_quantiles_match_bisection_oracle(u):
    # the median and the upper tail, where -ln(1 - u) reaches 36.7 and a
    # finite hi (phani5) comes close
    _assert_matches_bisection_oracle(u)


def test_sampled_quantiles_match_bisection_oracle():
    # independent evidence for the values the fixed steps choose: every draw of
    # a 256-point sample of each numeric-only set, against the oracle's root
    # for its own uniform.  The oracle brackets the root within 1e-6 of ln(t - lo),
    # so a t further off fails its sign test
    seed, n = 22, 256
    u = counter_uniforms(seed, 0, n).tolist()
    for name in NUMERIC_ONLY:
        for spec in reference_specs(name):
            lo = spec.support[0]
            for ui, t in zip(u, sample(spec, n, seed).values.tolist()):
                s = math.log(t - lo)
                x = math.exp(bisect(_oracle_gap(spec, ui), s - 1e-6, s + 1e-6, iters=64))
                bound = max(1e-13 * x, np.spacing(lo + x))
                assert abs((t - lo) - x) <= bound, (name, spec.params, ui, t, x)


def test_inverter_calls_survival_a_bounded_number_of_times(monkeypatch, ladder):
    # the work done, counted independent of timing: the ladder pass and the
    # passes over the still active points, each one call of the family's
    # cumulative hazard; the certificate reads no H of its own, and the passes
    # after the ladder evaluate H at about three points per quantile
    spec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    fam = families.family_info("xie_lai3")
    calls = []

    def counting_hazard(t, p):
        calls.append(np.size(t))
        return fam.hazard(t, p)

    monkeypatch.setitem(families._FAMILIES, "xie_lai3",
                        dataclasses.replace(fam, hazard=counting_hazard))
    u = counter_uniforms(2024, 0, 5000)
    t = invert_cdf(spec, u, tol=1e-12)
    assert len(calls) <= 10, len(calls)
    assert calls[0] == ladder(*_ladder_key(spec)).size, calls
    assert sum(calls[1:]) / u.size <= 3.3, calls
    assert np.all(np.diff(t[np.argsort(u)]) >= 0.0)


# H points read on one sampler block of 2^14 quantiles, ladder aside, when
# Chandrupatla's method took every point from its rung bracket (about 3.0 per
# quantile, 4.14 on the last phani5 set): the inverter may
# spend no more on any of the 11 numeric sets of the bulk benchmark (the steep
# phani5 set is not among them)
_H_BUDGET = [
    ("xie_lai3", dict(a=1.0, b=2.0, c=1.0), 49303),
    ("xie_lai3", dict(a=0.5, b=1.5, c=2.0), 48953),
    ("xie_lai3", dict(a=2.0, b=3.0, c=0.5), 54349),
    ("additive_weibull", dict(a=1.0, b=2.0, c=1.0, d=0.5), 51345),
    ("additive_weibull", dict(a=0.5, b=3.0, c=2.0, d=1.0), 49225),
    ("additive_weibull", dict(a=2.0, b=1.5, c=0.5, d=0.3), 49427),
    ("nadarajah_kotz", dict(a=1.0, b=1.0, c=1.0, d=1.0), 49688),
    ("nadarajah_kotz", dict(a=0.5, b=0.0, c=2.0, d=0.5), 49303),
    ("nadarajah_kotz", dict(a=2.0, b=2.0, c=0.5, d=2.0), 58373),
    ("phani5", dict(a=0.0, b=1.0, c=1.0, d=1.0, e=1.0), 55808),
    ("phani5", dict(a=1.0, b=3.0, c=0.7, d=2.0, e=0.5), 67803),
]


@pytest.mark.parametrize("family,params,budget", _H_BUDGET)
def test_hazard_points_per_quantile_stay_within_budget(monkeypatch, ladder, family, params,
                                                       budget):
    spec = validate(family, **params)
    fam = families.family_info(family)
    calls = []

    def counting_hazard(t, p):
        calls.append(np.size(t))
        return fam.hazard(t, p)

    monkeypatch.setitem(families._FAMILIES, family, dataclasses.replace(fam, hazard=counting_hazard))
    u = counter_uniforms(2024, 0, 2 ** 14)
    invert_cdf(spec, u)
    # the first call is the ladder; the certificate reads no H of its own
    assert sum(calls[1:]) <= budget, calls


# ---------------------------------------------------------------------------
# the rung ladder, computed once per parameter set


@pytest.fixture
def ladder():
    # the cache is keyed on the family's name, so a test that patches a family
    # must neither find a ladder from before nor leave one behind
    invert._ladder.cache_clear()
    yield invert._ladder
    invert._ladder.cache_clear()


def _ladder_key(spec):
    return (spec.family, tuple(spec.params),
            struct.pack("%dd" % (len(spec.params) + 2), *spec.params.values(), *spec.support))


def test_hazard_formula_sees_only_points_inside_the_support(monkeypatch, ladder):
    # validate, survival and the inverter all read H through one door, which
    # answers below lo, from hi on and at NaN itself
    fam = families.family_info("kies4")
    seen = []

    def recording_hazard(t, p):
        seen.append(np.array(t, copy=True))
        return fam.hazard(t, p)

    monkeypatch.setitem(families._FAMILIES, "kies4",
                        dataclasses.replace(fam, hazard=recording_hazard))
    spec = validate("kies4", a=0.5, b=2.0, c=1.0, d=1.0)
    t = np.array([-1.0, 0.5, 1.0, math.nan, 2.0, 3.0, math.inf])
    h = families._hazard(spec, t)
    assert h[0] == 0.0 and np.isnan(h[3]) and np.all(h[4:] == math.inf)
    np.testing.assert_array_equal(families.survival(spec, t)[[0, 4, 5, 6]], [1.0, 0.0, 0.0, 0.0])
    numeric_quantile(spec, np.array([2.0 ** -54, 0.3, 1.0 - 2.0 ** -53]))
    seen = np.concatenate(seen)
    assert seen.size and np.all((0.5 <= seen) & (seen < 2.0))


def test_two_calls_on_one_set_evaluate_the_ladder_once(monkeypatch, ladder):
    spec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    fam = families.family_info("xie_lai3")
    sizes = []

    def counting_hazard(t, p):
        sizes.append(np.size(t))
        return fam.hazard(t, p)

    monkeypatch.setitem(families._FAMILIES, "xie_lai3",
                        dataclasses.replace(fam, hazard=counting_hazard))
    first = numeric_quantile(spec, 0.3)
    second = numeric_quantile(spec, 0.7)
    assert sizes.count(ladder(*_ladder_key(spec)).size) == 1, sizes
    assert first.roundtrip_residual <= 1e-12 and second.roundtrip_residual <= 1e-12


def test_cache_keeps_every_reference_set_for_a_second_pass(ladder):
    specs = all_reference_specs()
    for spec in specs:
        numeric_quantile(spec, 0.5)
    misses = ladder.cache_info().misses
    for spec in specs:
        numeric_quantile(spec, 0.5)
    assert ladder.cache_info().misses == misses, ladder.cache_info()


def test_cached_ladder_is_read_only(ladder):
    spec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    numeric_quantile(spec, 0.3)
    at = ladder(*_ladder_key(spec))
    assert not at.flags.writeable
    with pytest.raises(ValueError):
        at[0] = 0.0


def test_cold_cache_gives_the_bits_of_a_fresh_evaluation(ladder):
    u = np.concatenate([[2.0 ** -54, 1e-12], np.linspace(0.01, 0.99, 25), [1.0 - 2.0 ** -53]])
    for name in NUMERIC_ONLY:
        for spec in reference_specs(name):
            ladder.cache_clear()
            cold = invert._bracketed_root(spec, u.copy())
            warm = invert._bracketed_root(spec, u.copy())
            for c, w in zip(cold, warm):  # t, and H at t
                assert c.tobytes() == w.tobytes(), (name, spec.params)
            cached, fresh = ladder(*_ladder_key(spec)), ladder.__wrapped__(*_ladder_key(spec))
            assert cached.tobytes() == fresh.tobytes(), (name, spec.params)


def test_signed_zero_parameters_do_not_share_a_ladder(ladder):
    for a in (0.0, -0.0):
        numeric_quantile(validate("xie_lai3", a=a, b=3.0, c=1.0), 0.3)
    assert ladder.cache_info().currsize == 2


def test_threaded_sampling_from_a_cold_cache_matches_serial(ladder):
    spec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    threaded = sample(spec, 3 * 2 ** 14 + 5, seed=11, workers=2).values
    ladder.cache_clear()
    serial = sample(spec, 3 * 2 ** 14 + 5, seed=11, workers=1).values
    assert threaded.tobytes() == serial.tobytes()


# ---------------------------------------------------------------------------
# one point steps in scalars, more points in arrays


def _bits(x):
    return np.asarray(x, dtype=float).ravel().view(np.int64).tolist()


# 60 log-spaced u in each tail, from the sampler's smallest uniform 2^-54 to
# its largest, 1 - 2^-53
_TAIL = np.geomspace(2.0 ** -54, 0.5, 60)
TAIL_PROBS = np.unique(np.concatenate((_TAIL, 1.0 - np.geomspace(2.0 ** -53, 0.5, 60))))


@pytest.mark.parametrize("spec", all_reference_specs(), ids=lambda s: "%s%s" % (
    s.family, sorted(s.params.values())))
def test_one_point_calls_give_the_bits_of_one_vector_call(spec):
    kept, scalar = [], []
    for u in TAIL_PROBS.tolist():
        try:
            scalar.append(numeric_quantile(spec, u))
        except LambertQError as exc:
            # the same u twice takes the array holder, and fails the same way
            with pytest.raises(LambertQError) as info:
                numeric_quantile(spec, np.array([u, u]))
            assert (type(info.value), str(info.value)) == (type(exc), str(exc)), u
            continue
        kept.append(u)
    vec = numeric_quantile(spec, np.array(kept))
    assert _bits([r.t for r in scalar]) == _bits(vec.t)
    assert _bits([r.roundtrip_residual for r in scalar]) == _bits(vec.roundtrip_residual)
    assert _bits([survival(spec, r.t) for r in scalar]) == _bits(survival(spec, vec.t))


def _failure_text(spec, u):
    """The error text of an invert_cdf that fails at u, with the worst
    |cdf(spec, t) - u| over the t its solver returned."""
    t = invert._bracketed_root(spec, np.atleast_1d(u))[0]
    worst = float(np.max(np.abs(cdf(spec, t) - u)))
    return ("%s: numeric inversion reached residual %r, not within the requested "
            "tolerance %r" % (spec.family, worst, 1e-12))


@pytest.mark.parametrize("spec", all_reference_specs(), ids=lambda s: "%s%s" % (
    s.family, sorted(s.params.values())))
def test_certificate_has_the_bits_of_the_cdf_residual(spec):
    # the certificate reads SF from the H the solver kept, and must still be
    # |cdf(t) - u| to the bit, alone and in an array, passing or failing
    kept = []
    for u in TAIL_PROBS.tolist():
        try:
            res = numeric_quantile(spec, u)
        except LambertQError as exc:
            assert str(exc) == _failure_text(spec, u), u
            continue
        assert res.roundtrip_residual <= 1e-12, u
        assert _bits(res.roundtrip_residual) == _bits(abs(cdf(spec, res.t) - u)), u
        kept.append(u)
    if len(kept) < TAIL_PROBS.size:
        with pytest.raises(LambertQError) as info:
            numeric_quantile(spec, TAIL_PROBS)
        assert str(info.value) == _failure_text(spec, TAIL_PROBS)
    vec = numeric_quantile(spec, np.array(kept))
    assert _bits(vec.roundtrip_residual) == _bits(np.abs(cdf(spec, vec.t) - np.array(kept)))


@pytest.mark.parametrize("family,params", [
    ("xie_lai3", dict(a=1.0, b=2.0, c=1.0)),
    ("nadarajah_kotz", dict(a=2.0, b=2.0, c=0.5, d=2.0)),
    ("phani5", dict(a=1.0, b=3.0, c=0.7, d=2.0, e=0.5)),
])
def test_one_point_numeric_quantile_reads_h_once_after_its_solve(monkeypatch, ladder, family,
                                                                  params):
    # the certificate reuses the solver's H, so the call reads H only in its
    # solve; the reported residual reads it once more, on its first read only
    spec = validate(family, **params)
    fam = families.family_info(family)
    calls = []

    def counting_hazard(t, p):
        calls.append(np.size(t))
        return fam.hazard(t, p)

    monkeypatch.setitem(families._FAMILIES, family, dataclasses.replace(fam, hazard=counting_hazard))
    invert._bracketed_root(spec, np.array([0.5]))  # the ladder, once
    longest = 0
    for u in TAIL_PROBS.tolist():
        calls.clear()
        invert._bracketed_root(spec, np.array([u]))
        solve = len(calls)
        calls.clear()
        res = numeric_quantile(spec, u)
        assert calls == [1] * solve, (u, solve, calls)
        res.roundtrip_residual
        res.roundtrip_residual
        assert calls == [1] * (solve + 1), (u, solve, calls)
        longest = max(longest, solve)
    assert longest > 3  # some u reached Chandrupatla's steps


def _fallback(spec, u, one):
    """Chandrupatla's steps for every u from its rung bracket, each point in the
    one-point holder or all in the array holder."""
    lo = spec.support[0]
    at, to_t = invert._ladder(*_ladder_key(spec)), invert._to_t(lo)
    with np.errstate(all="ignore"):
        log_l = np.log(-np.log1p(-u))
        j = np.maximum(at.searchsorted(log_l), 1)
        if not one:
            return invert._steps(lambda t: invert._hazards(spec, t), to_t, u, log_l,
                                 invert._start(at, lo, to_t, j, log_l), np.where)[0]
        read = lambda t: invert._hazards_one(spec, t)
        return np.hstack([
            invert._steps(read, to_t, u[i], log_l[i],
                          invert._start(at, lo, to_t, int(j[i]), log_l[i]), invert._one)[0]
            for i in range(u.size)])


@pytest.mark.parametrize("cap", [0, 1, 2, invert._MAX_STEPS])
def test_capped_steps_keep_the_first_bracket_in_both_loops(monkeypatch, cap):
    # a point still open when the steps run out returns an edge of the bracket
    # it began with, whether it was stepped alone or among others; the steps
    # are called directly, as most points never reach them.  Under the default
    # cap the points of a block end at different steps, and the block drops
    # them as they end
    u = TAIL_PROBS[::6]
    specs = [spec for name in NUMERIC_ONLY + ("trunc_log_weibull", "gen_weibull")
             for spec in reference_specs(name) if spec.u_max == 1.0]
    full = [_fallback(spec, u, one=False) for spec in specs]
    capped = cap < invert._MAX_STEPS
    monkeypatch.setattr(invert, "_MAX_STEPS", cap)
    moved = 0
    for spec, t in zip(specs, full):
        vec = _fallback(spec, u, one=False)
        one = _fallback(spec, u, one=True)
        assert _bits(one) == _bits(vec), (spec.family, spec.params)
        moved += np.count_nonzero(vec != t)
    if capped:
        assert moved > (u.size * len(specs) // 2 if cap == 0 else 0), moved
    else:
        assert moved == 0, moved


def test_guide_finds_the_rung_of_a_binary_search():
    # the guide table must pick the rung searchsorted picks, at every cell
    # edge, the doubles next to it, every rung value and a spread of u
    edges = invert._GUIDE_LO + np.arange(invert._GUIDE_CELLS + 1) / invert._GUIDE_PER
    u = counter_uniforms(5, 0, 4096)
    lowest, highest = math.log(2.0 ** -1074), math.log(-math.log1p(-(1.0 - 2.0 ** -53)))
    for spec in all_reference_specs():
        key = _ladder_key(spec)
        at = invert._ladder(*key)
        inside = at[(at >= lowest) & (at <= highest)]
        log_l = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                                inside, np.nextafter(inside, -np.inf), np.log(-np.log1p(-u))])
        log_l = log_l[(log_l >= lowest) & (log_l <= min(highest, at[-1]))]
        np.testing.assert_array_equal(invert._find(at, invert._guide(*key), log_l),
                                      at.searchsorted(log_l), err_msg=str(key))

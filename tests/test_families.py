"""Tests for the distribution registry: validation, SF/CDF evaluation,
analytic quantiles, support handling, and the tilted-Weibull hazard."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import bisect

import lambertq
from lambertq import (
    DomainError,
    HazardShape,
    NoAnalyticFormError,
    ParamError,
    QuantilePath,
    cdf,
    family_ids,
    family_info,
    gm_subtractive_quantile,
    numeric_quantile,
    quantile,
    quantile_values,
    reference_specs,
    survival,
    validate,
    wl_hazard,
)
from lambertq.families import _check_u_open, _w0, has_analytic_quantile

NUMERIC_ONLY = {"additive_weibull", "nadarajah_kotz", "phani5", "xie_lai3"}

GRID99 = np.arange(1, 100, dtype=np.float64) / 100.0


def all_refspecs():
    for name in family_ids():
        for spec in reference_specs(name):
            yield spec


# ---------------------------------------------------------------------------
# registry shape

def test_registry_has_28_families():
    ids = family_ids()
    assert len(ids) == 28
    assert len(set(ids)) == 28


def test_analytic_coverage_is_24_of_28():
    analytic = {n for n in family_ids() if has_analytic_quantile(n)}
    assert family_ids()[0] in analytic
    assert set(family_ids()) - analytic == NUMERIC_ONLY


def test_every_family_stores_its_cumulative_hazard():
    # one representation: H = -ln SF, from which survival, cdf and the
    # numeric inverter all read
    for n in family_ids():
        assert callable(family_info(n).hazard), n
    assert "sf" not in {f.name for f in dataclasses.fields(lambertq.families.Family)}


def test_exactly_the_six_families_with_a_printed_form_are_corrected():
    assert {n for n in family_ids() if family_info(n).corrected} == {
        "flexible_weibull", "mod_weibull_ext", "ext_weibull",
        "exp_kum_weibull5", "mod_pareto4", "mod_lognormal"}


def test_family_info_unknown_raises():
    with pytest.raises(ParamError):
        family_info("weibull17")


# ---------------------------------------------------------------------------
# validation

def test_validate_weibull2_support():
    spec = validate("weibull2", a=1.0, b=1.0)
    assert spec.support == (0.0, math.inf)
    assert spec.u_max == 1.0


def test_validate_rejects_missing_and_extra_params():
    with pytest.raises(ParamError):
        validate("weibull2", a=1.0)
    with pytest.raises(ParamError):
        validate("weibull2", a=1.0, b=1.0, c=1.0)


def test_validate_rejects_nonfinite_params():
    with pytest.raises(ParamError):
        validate("weibull2", a=float("nan"), b=1.0)
    with pytest.raises(ParamError):
        validate("weibull2", a=float("inf"), b=1.0)


def test_validate_rejects_nonpositive_scale_shape():
    with pytest.raises(ParamError):
        validate("weibull2", a=0.0, b=1.0)
    with pytest.raises(ParamError):
        validate("weibull2", a=1.0, b=-2.0)


def test_pham_base_must_exceed_one():
    with pytest.raises(ParamError, match="exceed 1"):
        validate("pham", a=1.0, b=2.0)
    validate("pham", a=1.0 + 1e-9, b=2.0)


def test_kies4_ordering_constraint():
    with pytest.raises(ParamError):
        validate("kies4", a=2.0, b=1.0, c=1.0, d=1.0)
    with pytest.raises(ParamError):
        validate("kies4", a=-0.5, b=1.0, c=1.0, d=1.0)
    spec = validate("kies4", a=0.0, b=1.0, c=1.0, d=1.0)
    assert spec.support == (0.0, 1.0)


def test_phani5_ordering_constraint():
    with pytest.raises(ParamError):
        validate("phani5", a=3.0, b=1.0, c=1.0, d=1.0, e=1.0)


def test_endpoint_gate_rejects_mass_closer_to_hi_than_its_last_probe():
    # H and the support agree here, but SF(1 - 1e-13) = exp(-1e-3 * 1e13^0.2)
    # = 0.67: most of the mass lies closer to hi than doubles resolve
    params = dict(a=0.0, b=1.0, c=1e-3, d=0.2)
    h = family_info("kies4").hazard(np.array([1.0 - 1e-13]), params)[0]
    assert math.exp(-h) == pytest.approx(0.67, abs=0.01)
    with pytest.raises(ParamError, match="upper endpoint 1.0"):
        validate("kies4", **params)
    validate("kies4", a=0.0, b=1.0, c=1e-3, d=1.0)  # SF(1 - 1e-13) = 0


def test_endpoint_gate_rejects_a_nan_survival_at_lo():
    # H(lo) = c 0^d / (b - a)^e = 0 / 0 once (1e-300)^5 underflows
    with pytest.raises(ParamError, match="lower endpoint is nan"):
        validate("phani5", a=0.0, b=1e-300, c=1.0, d=1.0, e=5.0)
    validate("phani5", a=0.0, b=1e-300, c=1.0, d=1.0, e=1.0)


def test_exponential_tilt_zero_rejected_with_direction():
    # families whose closed form divides by the tilt parameter reject 0
    # and point at the reducing family
    with pytest.raises(ParamError, match="weibull2"):
        validate("lai_weibull3", a=1.0, b=1.0, c=0.0)
    with pytest.raises(ParamError, match="exp_weibull"):
        validate("gen_mod_weibull", a=1.0, b=0.0, c=2.0, d=1.0)
    with pytest.raises(ParamError):
        validate("shifted_mod_weibull", a=1.0, b=1.0, c=0.0, d=0.0)
    with pytest.raises(ParamError):
        validate("kum_mod_weibull", a=1.0, b=1.0, c=1.0, d=1.0, mu=0.0)
    with pytest.raises(ParamError):
        validate("inv_mod_weibull", a=1.0, b=1.0, c=0.0)
    with pytest.raises(ParamError):
        validate("nadarajah_kotz", a=1.0, b=1.0, c=0.0, d=1.0)


def test_gompertz2_zero_slope_rejected():
    with pytest.raises(ParamError, match="weibull2"):
        validate("gompertz2", a=1.0, b=0.0)


def test_xie_lai3_constraints():
    with pytest.raises(ParamError):
        validate("xie_lai3", a=1.0, b=1.0, c=1.0)  # needs b > 1
    with pytest.raises(ParamError):
        validate("xie_lai3", a=-1.0, b=2.0, c=1.0)
    validate("xie_lai3", a=0.0, b=2.0, c=1.0)  # a = 0 is allowed


def test_location_parameters_allow_zero():
    validate("mod_pareto4", a=1.0, b=1.0, c=1.0, d=1.0, mu=0.0)
    with pytest.raises(ParamError):
        validate("mod_pareto4", a=1.0, b=1.0, c=1.0, d=1.0, mu=-0.1)
    validate("shifted_mod_weibull", a=1.0, b=1.0, c=1.0, d=0.0)
    validate("mod_lognormal", a=1.0, b=1.0, c=1.0, mu=1.0, d=0.0)


def test_spec_is_immutable():
    spec = validate("weibull2", a=1.0, b=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.family = "gompertz2"


# ---------------------------------------------------------------------------
# survival / cdf values

def test_weibull2_median_point():
    spec = validate("weibull2", a=1.0, b=1.0)
    assert survival(spec, math.log(2.0)) == pytest.approx(0.5, abs=1e-16)
    assert cdf(spec, 0.0) == 0.0


def test_lai_survival_at_one():
    # a=b=c=1 at t=1: exp(-1 * 1 * e^1) = exp(-e)
    spec = validate("lai_weibull3", a=1.0, b=1.0, c=1.0)
    assert survival(spec, 1.0) == pytest.approx(0.06598803584531254, rel=1e-15)


def test_gompertz_makeham_survival_at_infimum():
    spec = validate("gompertz_makeham", a=1.0, b=1.0, c=1.0)
    assert survival(spec, 0.0) == 1.0


def test_mod_log_logistic_median_at_omega():
    # SF = 1/(1 + t e^t) for a=b=c=1, so F = 1/2 exactly where t e^t = 1
    omega = bisect(lambda w: w * math.exp(w) - 1.0, 0.0, 1.0)
    spec = validate("mod_log_logistic", a=1.0, b=1.0, c=1.0)
    assert cdf(spec, omega) == pytest.approx(0.5, abs=1e-15)


def test_kies4_cdf_approaches_one_at_upper_endpoint():
    spec = validate("kies4", a=0.0, b=1.0, c=1.0, d=1.0)
    assert cdf(spec, 1.0 - 1e-12) > 1.0 - 1e-9
    assert cdf(spec, 1.0) == 1.0  # half-open support: hi maps to F = 1


def test_survival_clamps_outside_support():
    spec = validate("weibull2", a=1.0, b=2.0)
    assert survival(spec, -1.0) == 1.0
    kspec = validate("kies4", a=0.5, b=2.0, c=1.0, d=1.0)
    assert survival(kspec, 2.5) == 0.0
    assert survival(kspec, 0.2) == 1.0


def test_survival_is_zero_at_infinity_even_for_a_defective_set():
    # Gompertz with b < 0 has a finite H(inf) = -a/b, but H is +inf from hi on
    spec = validate("gompertz2", a=1.0, b=-1.0)
    assert survival(spec, math.inf) == 0.0
    assert survival(spec, 1e300) == pytest.approx(math.exp(-1.0))


def test_survival_nan_propagates():
    spec = validate("weibull2", a=1.0, b=1.0)
    assert math.isnan(survival(spec, float("nan")))


def test_survival_array_and_monotone():
    spec = validate("exp_weibull", a=1.0, b=2.0, c=3.0)
    t = np.linspace(0.0, 5.0, 401)
    s = survival(spec, t)
    assert s.shape == t.shape
    assert np.all(np.diff(s) <= 0)
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_cdf_complements_survival_exactly():
    spec = validate("odd_weibull", a=1.0, b=1.5, c=2.0)
    t = np.linspace(0.1, 4.0, 50)
    np.testing.assert_array_equal(cdf(spec, t), 1.0 - survival(spec, t))


def test_sf_bounds_at_support_edges_all_refsets():
    for spec in all_refspecs():
        lo, hi = spec.support
        med = numeric_quantile(spec, 0.5, tol=1e-9).t if not math.isfinite(lo) else None
        t_lo = lo if math.isfinite(lo) else -1e12 * max(1.0, abs(med))
        s_lo = survival(spec, t_lo)
        assert 1.0 - 1e-12 <= s_lo <= 1.0, spec.family
        if math.isfinite(hi):
            assert survival(spec, hi) == 0.0, spec.family
        else:
            scale = quantile_values(spec, np.array([0.5]))[0] if has_analytic_quantile(
                spec.family
            ) else numeric_quantile(spec, 0.5, tol=1e-9).t
            t_hi = 1e12 * max(1.0, abs(scale))
            assert survival(spec, t_hi) <= 1e-9, spec.family


def _inside_points(spec):
    # t inside the support, from the deep lower tail to the deep upper tail
    u = np.concatenate([[2.0 ** -54, 1e-12], np.linspace(0.01, 0.99, 21), [1.0 - 2.0 ** -53]])
    if has_analytic_quantile(spec.family):
        return quantile_values(spec, u)
    return numeric_quantile(spec, u, tol=1e-9).t


def test_all_inside_array_gives_the_bits_of_the_masked_path():
    # one NaN sends the whole array down the masked path; the inside points
    # must come out as from the one-gate path, and as one-point calls
    for spec in all_refspecs():
        t = _inside_points(spec)
        lo, hi = spec.support
        t = t[(lo <= t) & (t < hi)]
        for fn in (survival, cdf):
            whole = fn(spec, t)
            masked = fn(spec, np.append(t, math.nan))
            assert whole.tobytes() == masked[:-1].tobytes(), (spec.family, spec.params)
            assert math.isnan(masked[-1])
            points = np.array([fn(spec, float(x)) for x in t])
            assert whole.tobytes() == points.tobytes(), (spec.family, spec.params)


def test_mixed_array_fills_outside_points_and_nan():
    for spec in all_refspecs():
        lo, hi = spec.support
        mid = _inside_points(spec)[11]
        below = lo - 1.0 if math.isfinite(lo) else -math.inf
        t = np.array([below, mid, math.nan, hi, np.nextafter(hi, math.inf), mid])
        s = survival(spec, t)
        assert s[0] == 1.0 and s[3] == 0.0 and s[4] == 0.0, (spec.family, spec.params)
        assert math.isnan(s[2])
        assert s[1] == s[5] == survival(spec, mid)
        np.testing.assert_array_equal(cdf(spec, t), 1.0 - s)


def test_empty_and_zero_dimensional_inputs():
    spec = validate("weibull2", a=1.0, b=2.0)
    for fn in (survival, cdf):
        out = fn(spec, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        assert type(fn(spec, np.array(0.5))) is float
        assert type(fn(spec, 0.5)) is float


def test_mod_lognormal_nan_gives_nan_without_raising():
    # its H raises DomainError on NaN, so a NaN must never reach it
    spec = reference_specs("mod_lognormal")[0]
    assert math.isnan(survival(spec, math.nan))
    out = cdf(spec, np.array([0.5, math.nan, 1.0]))
    assert math.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()


@pytest.mark.parametrize("u,message", [
    (np.array([]), None),
    (np.array([0.3, 0.7]), None),
    (np.array(0.3), None),
    (np.array([0.3, math.nan]), "strictly inside"),
    (np.array([0.0, 0.5]), "strictly inside"),
    (np.array([0.5, 1.0]), "strictly inside"),
    (np.array(1.0), "strictly inside"),
    (np.array([1e-300, 1.0 - 2.0 ** -53]), None),
])
def test_u_check_outcomes(u, message):
    spec = validate("weibull2", a=1.0, b=2.0)
    if message is None:
        _check_u_open(u, spec)
    else:
        with pytest.raises(DomainError, match=message):
            _check_u_open(u, spec)


def test_u_check_outcomes_at_u_max():
    spec = validate("gompertz2", a=1.0, b=-1.0)
    _check_u_open(np.array([np.nextafter(spec.u_max, 0.0)]), spec)
    for u in (spec.u_max, 0.99):
        with pytest.raises(DomainError, match="u_max"):
            _check_u_open(np.array([0.1, u]), spec)
    with pytest.raises(DomainError, match="strictly inside"):
        _check_u_open(np.array([math.nan]), spec)


# ---------------------------------------------------------------------------
# analytic quantiles

def test_weibull2_median_is_log_two():
    spec = validate("weibull2", a=1.0, b=1.0)
    res = quantile(spec, 0.5)
    assert res.t == pytest.approx(math.log(2.0), abs=1e-16)
    assert res.path is QuantilePath.ANALYTIC_VERIFIED
    assert res.roundtrip_residual <= 1e-15


def test_lai_quantile_hits_one():
    # F(1) = 1 - exp(-e) for a=b=c=1, so Q(1 - exp(-e)) = 1
    spec = validate("lai_weibull3", a=1.0, b=1.0, c=1.0)
    u = 1.0 - math.exp(-math.e)
    assert u == pytest.approx(0.9340119641546875, abs=1e-16)
    assert quantile(spec, u).t == pytest.approx(1.0, abs=1e-13)


def test_mod_log_logistic_median_is_omega():
    omega = bisect(lambda w: w * math.exp(w) - 1.0, 0.0, 1.0)
    spec = validate("mod_log_logistic", a=1.0, b=1.0, c=1.0)
    assert quantile(spec, 0.5).t == pytest.approx(omega, abs=1e-14)


def test_gompertz_makeham_quantile_matches_numeric():
    spec = validate("gompertz_makeham", a=1.0, b=1.0, c=1.0)
    u = 1.0 - math.exp(-1.0)
    analytic = quantile(spec, u)
    oracle = numeric_quantile(spec, u, tol=1e-12)
    assert analytic.t == pytest.approx(oracle.t, abs=1e-9)
    assert analytic.roundtrip_residual <= 1e-9


def test_gompertz_makeham_tiny_u_relative_error():
    # small u, where the outer-log form cancels (to t = 0.0 at u = 2^-54);
    # the oracle solves a t + (b/c) expm1(c t) = L(u) by bisection
    us = [2.0 ** -54, 1.05e-16, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.5]
    for spec in reference_specs("gompertz_makeham"):
        a, b, c = spec.params["a"], spec.params["b"], spec.params["c"]
        got = quantile_values(spec, np.array(us))
        for u, t in zip(us, got):
            l_u = -math.log1p(-u)
            ref = bisect(lambda x: a * x + (b / c) * math.expm1(c * x) - l_u,
                         0.0, 2.0 * l_u / (a + b) + 10.0)
            assert abs(t - ref) <= 1e-11 * ref, (spec.params, u, t, ref)


def test_gompertz_makeham_huge_w_argument_is_certified():
    # ln A = ln(b/a) + (b + c L(u))/a is about 1e308 here: W0 comes from
    # w_principal_from_log's asymptotic start and the quantile is certified
    spec = validate("gompertz_makeham", a=1e-308, b=1.0, c=1.0)
    q = quantile(spec, 0.5)
    assert math.isfinite(q.t) and spec.support[0] <= q.t
    assert q.roundtrip_residual <= 1e-12


def test_gompertz_makeham_overflowing_w_argument_is_certified():
    # ln A = ln(b/a) + (b + c L(u))/a overflows to +inf in the closed form;
    # there a t lies below the last bit of L(u), and the quantile is the
    # a -> 0 limit ln(1 + c L/b)/c.  At a = 1e-308, ln A overflows for u above
    # about 0.55 only, so one array mixes both routes
    u = np.concatenate([[2.0 ** -54, 1e-12], GRID99, [1.0 - 1e-12, 1.0 - 2.0 ** -53]])
    limit = np.log1p(-np.log1p(-u))
    for a in (1e-307, 1e-308, 5e-324):
        spec = validate("gompertz_makeham", a=a, b=1.0, c=1.0)
        q = quantile(spec, u)
        assert np.isfinite(q.t).all() and (q.t >= 0.0).all(), a
        assert q.roundtrip_residual.max() <= 1e-12, a
        assert np.all(np.diff(q.t) > 0.0), a
        upper = u >= (0.6 if a == 1e-308 else 1.0 - 1e-12)
        np.testing.assert_allclose(q.t[upper], limit[upper], rtol=4e-16, atol=0.0)
    spec = validate("gompertz_makeham", a=1e-307, b=1.0, c=1.0)
    assert quantile(spec, 1.0 - 1e-12).t == pytest.approx(3.354491557073235, rel=1e-15)


def test_gompertz_makeham_dual_forms_agree():
    u = GRID99
    for spec in reference_specs("gompertz_makeham"):
        q_main = quantile_values(spec, u)
        q_sub = gm_subtractive_quantile(spec, u)
        assert np.abs(q_main - q_sub).max() <= 1e-10


def test_quantile_paths_by_family():
    assert quantile(validate("weibull2", a=1.0, b=1.0), 0.3).path is (
        QuantilePath.ANALYTIC_VERIFIED
    )
    assert quantile(validate("flexible_weibull", a=1.0, b=1.0), 0.3).path is (
        QuantilePath.ANALYTIC_CORRECTED
    )
    res = numeric_quantile(validate("xie_lai3", a=1.0, b=2.0, c=1.0), 0.3)
    assert res.path is QuantilePath.NUMERIC


def test_quantile_raises_for_numeric_only_families():
    spec = validate("additive_weibull", a=1.0, b=2.0, c=1.0, d=0.5)
    with pytest.raises(NoAnalyticFormError):
        quantile(spec, 0.5)
    with pytest.raises(NoAnalyticFormError):
        quantile_values(spec, np.array([0.5]))


def test_quantile_rejects_endpoint_u():
    spec = validate("weibull2", a=1.0, b=1.0)
    for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(DomainError):
            quantile(spec, bad)


def test_quantile_roundtrip_all_analytic_refsets():
    for spec in all_refspecs():
        if not has_analytic_quantile(spec.family):
            continue
        grid = GRID99 if spec.u_max == 1.0 else GRID99[GRID99 < spec.u_max]
        res = quantile(spec, grid)
        assert np.max(res.roundtrip_residual) <= 1e-9, spec.family


def test_quantile_strictly_increasing_all_refsets():
    for spec in all_refspecs():
        if not has_analytic_quantile(spec.family):
            continue
        grid = GRID99 if spec.u_max == 1.0 else GRID99[GRID99 < spec.u_max]
        t = quantile_values(spec, grid)
        assert np.all(np.diff(t) > 0), spec.family


def test_quantile_limits_approach_support_endpoints():
    for name, params in (
        ("weibull2", dict(a=1.0, b=2.0)),
        ("kies4", dict(a=0.5, b=2.0, c=1.0, d=1.0)),
        ("gen_weibull", dict(a=1.0, b=2.0, c=0.5)),
    ):
        spec = validate(name, **params)
        lo, hi = spec.support
        t_lo = quantile(spec, 1e-12).t
        assert t_lo >= lo and t_lo - lo < 0.25 * (min(hi, 10.0) - lo)
        if math.isfinite(hi):
            t_hi = quantile(spec, 1.0 - 1e-12).t
            assert t_hi < hi and hi - t_hi < 0.25 * (hi - lo)


def test_quantile_values_matches_quantile_t():
    spec = validate("exp_kum_weibull5", a=1.5, b=2.0, c=0.7, d=1.0, e=1.2)
    u = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(quantile_values(spec, u), quantile(spec, u).t)


def test_gen_weibull_support_upper_bound():
    # SF = (1 - a c t^b)^(1/c) vanishes where a c t^b = 1
    spec = validate("gen_weibull", a=2.0, b=3.0, c=0.25)
    lo, hi = spec.support
    assert hi == pytest.approx((2.0 * 0.25) ** (-1.0 / 3.0), rel=1e-15)
    assert survival(spec, hi * (1.0 - 1e-9)) < 1e-2
    assert survival(spec, hi) == 0.0


@pytest.mark.parametrize("family,params,u", [
    ("exp_weibull", {"a": 2.0, "b": 0.8, "c": 0.5}, 3e-9),
    ("exp_kum_weibull5", {"a": 0.7, "b": 2.0, "c": 0.5, "d": 2.0, "e": 0.8}, 3e-9),
    ("gen_mod_weibull", {"a": 2.0, "b": 1.0, "c": 0.5, "d": 0.7}, 1e-12),
    ("exp_inv_weibull", {"a": 2.0, "b": 0.5, "c": 2.0}, 1.0 - 3e-9),
    ("exp_inv_weibull", {"a": 2.0, "b": 0.5, "c": 2.0}, 1.0 - 1e-12),
    ("exp_inv_weibull", {"a": 2.0, "b": 0.5, "c": 2.0}, 1.0 - 2.0 ** -53),
    ("kum_mod_weibull", {"a": 2.0, "b": 0.7, "c": 0.5, "d": 2.0, "mu": 2.0}, 1.0 - 1e-12),
    ("kum_mod_weibull", {"a": 2.0, "b": 0.7, "c": 0.5, "d": 2.0, "mu": 2.0}, 1.0 - 2.0 ** -53),
])
def test_closed_form_tails_stay_finite_and_roundtrip(family, params, u):
    # 1 - u^(1/c) and 1 - (1-u)^(1/b) round to 0 or 1 in these tails; the
    # formulas must carry them as logarithms instead
    spec = validate(family, **params)
    t = quantile(spec, u).t
    lo, hi = spec.support
    assert math.isfinite(t) and lo < t < hi
    assert abs(cdf(spec, t) - u) <= 1e-12


EKW5_2 = {"a": 2.0, "b": 0.5, "c": 1.5, "d": 1.0, "e": 2.0}
KUM_MOD_2 = {"a": 0.5, "b": 2.0, "c": 2.0, "d": 0.5, "mu": 0.5}


@pytest.mark.parametrize("family,params,u", [
    ("exp_kum_weibull5", EKW5_2, 1.0 - 3e-9),
    ("exp_kum_weibull5", EKW5_2, 1.0 - 1e-6),
    ("kum_mod_weibull", KUM_MOD_2, 3e-9),
    ("kum_mod_weibull", KUM_MOD_2, 1e-6),
])
def test_hazard_resolves_tails_where_survival_rounds_to_0_or_1(family, params, u):
    # written as a survival function, F read 1.0 or 0.0 here, so a quantile
    # right to the last bits showed a residual of up to u itself
    spec = validate(family, **params)
    assert quantile(spec, u).roundtrip_residual <= 1e-15
    assert numeric_quantile(spec, u).roundtrip_residual <= 1e-15


@pytest.mark.parametrize("t", [5.0, 8.0, 12.0])
def test_mod_lognormal_upper_tail_survival_is_relative_accurate(t):
    # 1 - Phi(z) cancels to 0 from z of about 8.3 on (t = 8 gives 3.9e-31)
    p = {"a": 0.5, "b": 2.0, "c": 0.5, "d": 1.0, "mu": 0.5}
    z = (p["b"] * math.log(p["a"] * t) + p["c"] * t - p["d"]) / p["mu"]
    expected = 0.5 * math.erfc(z / math.sqrt(2.0))
    assert survival(validate("mod_lognormal", **p), t) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("arg", [math.nan, -0.1, -1e-300])
def test_lambert_argument_must_be_nonnegative(arg):
    with pytest.raises(DomainError):
        _w0(np.array([0.5, arg]))


def test_lambert_argument_check_survives_optimize_flag():
    # python -O strips assert statements; W(-0.1) itself would succeed
    code = (
        "import numpy as np\n"
        "from lambertq import DomainError\n"
        "from lambertq.families import _w0\n"
        "try:\n"
        "    _w0(np.array([-0.1]))\n"
        "except DomainError:\n"
        "    print('DomainError')\n"
    )
    src = os.path.dirname(os.path.dirname(lambertq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "DomainError\n"


# ---------------------------------------------------------------------------
# defective Gompertz (b < 0)

def test_gompertz2_negative_slope_is_defective():
    spec = validate("gompertz2", a=1.0, b=-1.0)
    assert spec.u_max == pytest.approx(-math.expm1(-1.0), abs=1e-16)
    # survival flattens at exp(a/b) = 1 - u_max instead of reaching 0
    assert survival(spec, 1e6) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gompertz2_defective_quantile_range():
    spec = validate("gompertz2", a=1.0, b=-1.0)
    res = quantile(spec, 0.3)
    assert res.roundtrip_residual <= 1e-15
    with pytest.raises(DomainError, match="u_max"):
        quantile(spec, 0.7)
    with pytest.raises(DomainError):
        quantile(spec, spec.u_max)


# ---------------------------------------------------------------------------
# reduction identities

def test_lai_reduces_to_weibull2_as_tilt_vanishes():
    lai = validate("lai_weibull3", a=2.0, b=1.5, c=1e-12)
    base = validate("weibull2", a=2.0, b=1.5)
    u = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    t_lai = numeric_quantile(lai, u, tol=1e-12).t
    t_base = quantile_values(base, u)
    assert np.abs(t_lai - t_base).max() <= 1e-6


def test_mod_power_lomax_reduces_to_mod_log_logistic_exactly():
    mpl = validate("mod_power_lomax", a=1.3, b=0.8, c=2.0, d=1.0)
    mll = validate("mod_log_logistic", a=1.3, b=0.8, c=2.0)
    u = np.linspace(0.01, 0.99, 99)
    np.testing.assert_array_equal(quantile_values(mpl, u), quantile_values(mll, u))
    t = np.linspace(0.01, 5.0, 100)
    np.testing.assert_array_equal(survival(mpl, t), survival(mll, t))


def test_gen_mod_weibull_reduces_to_weibull2():
    gmw = validate("gen_mod_weibull", a=1.5, b=1e-12, c=2.0, d=1.0)
    base = validate("weibull2", a=1.5, b=2.0)
    u = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    t_gmw = quantile_values(gmw, u)
    t_base = quantile_values(base, u)
    assert np.abs(t_gmw - t_base).max() <= 1e-6


# ---------------------------------------------------------------------------
# hazard of the exponentially tilted Weibull

def test_hazard_constant_for_exponential():
    rate, shape = wl_hazard(1.0, 1.0, 0.0, 5.0)
    assert rate == 1.0
    assert shape is HazardShape.INCREASING


def test_hazard_value_three_e():
    rate, shape = wl_hazard(1.0, 2.0, 1.0, 1.0)
    assert rate == pytest.approx(8.154845485377136, rel=1e-15)  # (2+1)*e
    assert shape is HazardShape.INCREASING


def test_hazard_bathtub_for_small_shape():
    _, shape = wl_hazard(1.0, 0.5, 1.0, 0.1)
    assert shape is HazardShape.BATHTUB
    _, shape = wl_hazard(1.0, 0.5, 1.0, 7.3)
    assert shape is HazardShape.BATHTUB  # class depends on b only


def test_hazard_domain_and_param_errors():
    with pytest.raises(DomainError):
        wl_hazard(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        wl_hazard(1.0, 1.0, 1.0, -2.0)
    with pytest.raises(ParamError):
        wl_hazard(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParamError):
        wl_hazard(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ParamError):
        wl_hazard(1.0, 1.0, -0.5, 1.0)

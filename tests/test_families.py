"""Tests for the distribution registry: validation, SF/CDF evaluation,
analytic quantiles, support handling, and the tilted-Weibull hazard."""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from conftest import bisect

import lambertq
from lambertq import (
    BracketError,
    DomainError,
    HazardShape,
    NoAnalyticFormError,
    ParamError,
    QuantilePath,
    QuantileResult,
    WEvaluation,
    cdf,
    family_ids,
    family_info,
    gm_subtractive_quantile,
    invert_cdf,
    numeric_quantile,
    quantile,
    quantile_values,
    reference_params,
    reference_specs,
    std_normal_cdf,
    std_normal_quantile,
    survival,
    tree_t,
    validate,
    w_principal,
    w_series,
    wl_hazard,
)
from lambertq import families
from lambertq.families import _check_u_open, _power_exp_root

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
    analytic = {n for n in family_ids() if family_info(n).quantile is not None}
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


_POS = "must be positive (got 0.0)"
_NONNEG = "must be nonnegative (got -0.5)"
_ORDER = "endpoints must satisfy 0 <= a < b (got a=%r, b=1.0)"

# (family, change to its first reference set, message after "<family>: "),
# one row per parameter rule, each change breaking that rule alone (a
# gen_weibull a, b or c at 0 also moves the endpoint, which is checked last)
PARAM_MESSAGES = [
    ("weibull2", {"a": 0.0}, "a " + _POS),
    ("weibull2", {"b": -2.0}, "b must be positive (got -2.0)"),
    ("gompertz2", {"a": 0.0}, "a " + _POS),
    ("gompertz2", {"b": 0.0}, "b must be nonzero; the b = 0 limit is the exponential, "
                              "use weibull2 with b = 1"),
    ("trunc_log_weibull", {"b": 0.0}, "b " + _POS),
    ("flexible_weibull", {"a": 0.0}, "a " + _POS),
    ("flexible_weibull", {"b": 0.0}, "b " + _POS),
    ("pham", {"a": 1.0}, "a must exceed 1 (got 1.0)"),
    ("pham", {"b": 0.0}, "b " + _POS),
    *[(fam, {n: 0.0}, n + " " + _POS)
      for fam in ("exp_weibull", "mod_weibull_ext", "exp_inv_weibull", "gen_weibull",
                  "ext_weibull", "gen_power_weibull", "odd_weibull", "mod_log_logistic",
                  "gompertz_makeham")
      for n in "abc"],
    ("gen_weibull", {"a": 78085.74, "b": 0.00708, "c": 24368.26},
     "the upper endpoint (a*c)^(-1/b) underflows to 0 for a=78085.74, b=0.00708, c=24368.26"),
    ("gen_weibull", {"a": 1e-3, "b": 1e-3, "c": 1e-3},
     "the upper endpoint (a*c)^(-1/b) overflows for a=0.001, b=0.001, c=0.001"),
    ("kies4", {"a": -0.5}, _ORDER % -0.5),
    ("kies4", {"a": 1.0}, _ORDER % 1.0),
    ("kies4", {"a": 2.0}, _ORDER % 2.0),
    ("kies4", {"c": 0.0}, "c " + _POS),
    ("kies4", {"d": 0.0}, "d " + _POS),
    *[("exp_kum_weibull5", {n: 0.0}, n + " " + _POS) for n in "abcde"],
    ("lai_weibull3", {"a": 0.0}, "a " + _POS),
    ("lai_weibull3", {"b": 0.0}, "b " + _POS),
    ("lai_weibull3", {"c": 0.0}, "c must be positive; the c = 0 limit has no exponential "
                                 "tilt and is exactly weibull2(a, b)"),
    ("inv_mod_weibull", {"a": 0.0}, "a " + _POS),
    ("inv_mod_weibull", {"b": 0.0}, "b " + _POS),
    ("inv_mod_weibull", {"c": 0.0}, "c must be positive; the c = 0 limit is the inverse "
                                    "Weibull, use exp_inv_weibull with b = 1"),
    ("xie_lai3", {"a": -0.5}, "a " + _NONNEG),
    ("xie_lai3", {"b": 1.0}, "b must exceed 1 (got 1.0)"),
    ("xie_lai3", {"c": 0.0}, "c " + _POS),
    ("gen_mod_weibull", {"a": 0.0}, "a " + _POS),
    ("gen_mod_weibull", {"b": 0.0}, "b must be positive; the b = 0 limit has no exponential "
                                    "tilt and is exactly exp_weibull(a, c, d)"),
    ("gen_mod_weibull", {"c": 0.0}, "c " + _POS),
    ("gen_mod_weibull", {"d": 0.0}, "d " + _POS),
    ("shifted_mod_weibull", {"a": 0.0}, "a " + _POS),
    ("shifted_mod_weibull", {"b": 0.0}, "b " + _POS),
    ("shifted_mod_weibull", {"c": 0.0}, "c must be positive; the c = 0 limit has no "
                                        "exponential tilt and is a shifted weibull2(a^b, b)"),
    ("shifted_mod_weibull", {"d": -0.5}, "d " + _NONNEG),
    *[("additive_weibull", {n: 0.0}, n + " " + _POS) for n in "abcd"],
    *[("mod_power_lomax", {n: 0.0}, n + " " + _POS) for n in "abcd"],
    ("nadarajah_kotz", {"a": 0.0}, "a " + _POS),
    ("nadarajah_kotz", {"b": -0.5}, "b " + _NONNEG),
    ("nadarajah_kotz", {"c": 0.0}, "c must be positive; c = 0 makes the survival function "
                                   "identically 1"),
    ("nadarajah_kotz", {"d": 0.0}, "d " + _POS),
    *[("kum_mod_weibull", {n: 0.0}, n + " " + _POS) for n in "abcd"],
    ("kum_mod_weibull", {"mu": 0.0}, "mu must be positive; the mu = 0 limit has no exponential "
                                     "tilt (a plain Kumaraswamy-Weibull, not registered here)"),
    ("phani5", {"a": -0.5}, _ORDER % -0.5),
    ("phani5", {"a": 1.0}, _ORDER % 1.0),
    ("phani5", {"a": 3.0}, _ORDER % 3.0),
    *[("phani5", {n: 0.0}, n + " " + _POS) for n in "cde"],
    *[("mod_pareto4", {n: 0.0}, n + " " + _POS) for n in "abcd"],
    ("mod_pareto4", {"mu": -0.5}, "mu " + _NONNEG),
    *[("mod_lognormal", {n: 0.0}, n + " " + _POS) for n in ("a", "b", "c", "mu")],
    ("mod_lognormal", {"d": -0.5}, "d " + _NONNEG),
]


@pytest.mark.parametrize("family,change,message", PARAM_MESSAGES)
def test_each_parameter_rule_raises_its_own_message(family, change, message):
    params = {**reference_params(family)[0], **change}
    with pytest.raises(ParamError) as info:
        validate(family, **params)
    assert str(info.value) == family + ": " + message


@pytest.mark.parametrize("family,params,message", [
    # rules are checked in a fixed order: the first broken one is reported
    ("nadarajah_kotz", dict(a=1.0, b=-1.0, c=0.0, d=0.0), "d " + _POS),
    ("nadarajah_kotz", dict(a=1.0, b=-1.0, c=0.0, d=1.0), "b must be nonnegative (got -1.0)"),
    ("gen_mod_weibull", dict(a=1.0, b=0.0, c=1.0, d=0.0), "d " + _POS),
    ("mod_lognormal", dict(a=1.0, b=1.0, c=1.0, d=-1.0, mu=0.0), "mu " + _POS),
    ("kies4", dict(a=2.0, b=1.0, c=0.0, d=0.0), _ORDER.replace("b=1.0", "b=%r") % (2.0, 1.0)),
    ("xie_lai3", dict(a=-1.0, b=1.0, c=0.0), "a must be nonnegative (got -1.0)"),
    ("gen_weibull", dict(a=1.0, b=-1.0, c=0.0), "b must be positive (got -1.0)"),
])
def test_a_set_breaking_two_rules_reports_the_first_in_check_order(family, params, message):
    with pytest.raises(ParamError) as info:
        validate(family, **params)
    assert str(info.value) == family + ": " + message


def test_every_parameter_rule_has_a_pinned_message():
    # trunc_log_weibull's location a is free; kies4 and phani5 b enter only
    # through the endpoint order, whose rows change a
    rows = {(fam, n) for fam, change, _ in PARAM_MESSAGES for n in change}
    constrained = {(fam, n) for fam in family_ids() for n in family_info(fam).params}
    assert constrained - rows == {("trunc_log_weibull", "a"), ("kies4", "b"), ("phani5", "b")}


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
            scale = (quantile_values(spec, np.array([0.5]))[0]
                     if family_info(spec.family).quantile is not None
                     else numeric_quantile(spec, 0.5, tol=1e-9).t)
            t_hi = 1e12 * max(1.0, abs(scale))
            assert survival(spec, t_hi) <= 1e-9, spec.family


def _inside_points(spec):
    # t inside the support, from the deep lower tail to the deep upper tail
    u = np.concatenate([[2.0 ** -54, 1e-12], np.linspace(0.01, 0.99, 21), [1.0 - 2.0 ** -53]])
    if family_info(spec.family).quantile is not None:
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
    for fn in (quantile, numeric_quantile):
        for u in (0.5, np.array(0.5)):
            res = fn(spec, u)
            assert type(res.t) is float and type(res.roundtrip_residual) is float
        res = fn(spec, np.array([0.5]))
        for out in (res.t, res.roundtrip_residual):
            assert isinstance(out, np.ndarray) and out.shape == (1,)
    # every other entry keeps the same contract: a 0-d input returns a Python float
    gm = validate("gompertz_makeham", a=1.0, b=1.0, c=1.0)
    lai = validate("lai_weibull3", a=1.0, b=1.0, c=1.0)
    for fn in (lambda u: quantile_values(spec, u), lambda u: quantile_values(lai, u),
               lambda u: invert_cdf(spec, u), lambda u: gm_subtractive_quantile(gm, u),
               std_normal_cdf, std_normal_quantile):
        assert type(fn(0.5)) is float and type(fn(np.array(0.5))) is float
        out = fn(np.array([0.5]))
        assert isinstance(out, np.ndarray) and out.shape == (1,)


# ---------------------------------------------------------------------------
# the roundtrip residual, formed on its first read

_ROUTES = [
    (quantile, "weibull2", dict(a=1.0, b=2.0)),
    (quantile, "lai_weibull3", dict(a=1.0, b=1.0, c=1.0)),
    (numeric_quantile, "xie_lai3", dict(a=1.0, b=2.0, c=1.0)),
]
_ROUTE_IDS = ["elementary", "lambertw", "numeric"]


def _bits(x):
    return np.asarray(x, dtype=float).ravel().view(np.int64).tolist()


@pytest.mark.parametrize("call,family,params", _ROUTES, ids=_ROUTE_IDS)
def test_residual_reads_h_once_on_its_first_read_and_never_again(monkeypatch, call, family,
                                                                 params):
    spec = validate(family, **params)
    call(spec, 0.3)  # the numeric route's ladder, read before H is counted
    fam = family_info(family)
    calls = []

    def counting_hazard(t, p):
        calls.append(np.size(t))
        return fam.hazard(t, p)

    monkeypatch.setitem(families._FAMILIES, family, dataclasses.replace(fam, hazard=counting_hazard))
    for u in (0.3, np.array([0.1, 0.5, 0.9])):
        calls.clear()
        res = call(spec, u)
        solve = list(calls)  # the analytic route reads none
        assert (solve == []) == (call is quantile), solve
        first = res.roundtrip_residual
        assert calls == solve + [np.size(u)], calls
        assert res.roundtrip_residual is first
        assert calls == solve + [np.size(u)], calls


@pytest.mark.parametrize("call,family,params", _ROUTES, ids=_ROUTE_IDS)
def test_residual_reads_u_and_t_as_they_were_at_the_call(call, family, params):
    # the caller may change their u array, or the result's t array, before the
    # residual's first read
    spec = validate(family, **params)
    for u in (np.array(0.3), np.array([0.3]), np.array([[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])):
        want = call(spec, u.copy()).roundtrip_residual
        res = call(spec, u)
        u[...] = 0.5
        if isinstance(res.t, np.ndarray):
            res.t[...] = 1.0
        assert _bits(res.roundtrip_residual) == _bits(want), u.shape


def _unread(call, family, params):
    if call is w_principal:
        return lambda: w_principal(0.5)
    spec = validate(family, **params)
    return lambda: call(spec, 0.3)


def _eager(out):
    # the same result built by the dataclass's own constructor, every field given
    if isinstance(out, WEvaluation):
        return WEvaluation(out.value, out.residual, out.iterations)
    return QuantileResult(out.t, out.path, out.roundtrip_residual)


@pytest.mark.parametrize("call,family,params", _ROUTES + [(w_principal, None, None)],
                         ids=_ROUTE_IDS + ["w_principal"])
def test_a_pending_result_compares_copies_and_pickles_as_its_eager_twin(call, family, params):
    fresh = _unread(call, family, params)
    eager = _eager(fresh())
    assert fresh() == eager and eager == fresh()
    assert hash(fresh()) == hash(eager)
    assert repr(fresh()) == repr(eager)
    assert dataclasses.replace(fresh()) == eager
    assert dataclasses.asdict(fresh()) == dataclasses.asdict(eager)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        twin = clone(fresh())
        assert vars(twin) == vars(eager)  # the value travels, not the recipe
        assert twin == eager


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


def test_gompertz_makeham_tiny_a_matches_mpmath():
    # ln W(A) and ln(a/b) are both near 704 here; t = ln((a/b) W)/c forms the
    # product first, so the sum cannot cancel away the bits of t
    mpmath.mp.dps = 50
    a, b, c = 1e-306, 1.0, 1.0
    spec = validate("gompertz_makeham", a=a, b=b, c=c)
    for u in (0.01, 0.1, 0.5, 0.9):
        l_u = -mpmath.log1p(-mpmath.mpf(u))
        ref = mpmath.findroot(lambda x: a * x + (b / c) * mpmath.expm1(c * x) - l_u,
                              mpmath.log1p(l_u))
        t = quantile(spec, u).t
        assert abs(t - ref) <= 1e-13 * ref, (u, t, ref)


def test_exp_inv_weibull_sample_past_the_largest_double_raises_like_the_numeric_route():
    # SF ~ a^b t^(-bc) with bc = 0.0023: the quantile of u above about 0.81 lies
    # beyond the largest double, and both routes say so with the same error type
    spec = validate("exp_inv_weibull", a=0.2704961323748166, b=0.005641574231324884,
                    c=0.4096985196240187)
    with pytest.raises(BracketError, match="exp_inv_weibull"):
        lambertq.sample(spec, 10 ** 5, 1)
    for route in (quantile, numeric_quantile):
        with pytest.raises(BracketError, match="exp_inv_weibull"):
            route(spec, 1.0 - 1e-6)
    assert math.isfinite(quantile(spec, 0.5).t)


def test_odd_weibull_upper_tail_where_the_odds_power_overflows():
    # (u/(1-u))^(1/c) passes the largest double at u = 1 - 1e-12; ln(1 + r^(1/c))
    # is then taken in logs, and H in turn where (e^x - 1)^c overflows
    mpmath.mp.dps = 50
    a, b, c = 0.5317394611668729, 0.7197963965656078, 0.03348239667961196
    spec = validate("odd_weibull", a=a, b=b, c=c)
    u = mpmath.mpf(1.0 - 1e-12)
    ref = (mpmath.log1p((u / (1 - u)) ** (1 / mpmath.mpf(c))) / a) ** (1 / mpmath.mpf(b))
    q = quantile(spec, 1.0 - 1e-12)
    assert abs(q.t - ref) <= 1e-14 * ref, (q.t, ref)
    assert q.roundtrip_residual <= 1e-15
    assert numeric_quantile(spec, 1.0 - 1e-12).t == pytest.approx(q.t, rel=1e-12)


EKW5_DEEP = {"a": 3.0101515575115516, "b": 0.026803093938522052, "c": 0.7784499234858963,
             "d": 6.940436791772006, "e": 2.178872485281333}
EKW5_WIDE_A = {"a": 1e300, "b": 0.5, "c": 1.0, "d": 1.0, "e": 1.0}
EKW5_TINY_A = {"a": 1e-300, "b": 0.5, "c": 1.0, "d": 1.0, "e": 1.0}


def _ekw5_mp(params):
    """50-digit quantile and survival of exp_kum_weibull5, each power taken in logs."""
    mpmath.mp.dps = 50
    a, b, c, d, e = (mpmath.mpf(params[k]) for k in "abcde")

    def q(u):
        log_s1 = mpmath.log(-mpmath.expm1(mpmath.log(mpmath.mpf(u)) / c))
        log_s3 = mpmath.log(-mpmath.expm1(mpmath.log1p(-mpmath.exp(log_s1 / b)) / a))
        return (-log_s3 / d) ** (1 / e)

    def sf(t):
        log_1mh = mpmath.log(-mpmath.expm1(a * mpmath.log1p(-mpmath.exp(-d * mpmath.mpf(t) ** e))))
        return -mpmath.expm1(c * mpmath.log1p(-mpmath.exp(b * log_1mh)))

    return q, sf


@pytest.mark.parametrize("params,u", [
    (EKW5_DEEP, 1.0 - 1e-12),  # 9.889305377618204
    (EKW5_DEEP, 1.0 - 2.0 ** -53),
    (EKW5_WIDE_A, 1.0 - 1e-6),
    (EKW5_WIDE_A, 1.0 - 1e-12),
])
def test_exp_kum_weibull5_quantile_where_the_inner_power_underflows(params, u):
    # s1^(1/b) (or s1^(1/b)/a) leaves the normal range here, so ln(1 - s1^(1/b))
    # read -0 and t was inf; the chain now carries ln(-ln(1 - s1^(1/b)))
    ref = _ekw5_mp(params)[0](u)
    spec = validate("exp_kum_weibull5", **params)
    q = quantile(spec, u)
    assert abs(q.t - ref) <= 2e-16 * ref, (q.t, ref)
    assert q.roundtrip_residual <= 1e-15
    assert quantile_values(spec, np.array(u)) == q.t  # a 0-d u takes the same mask
    assert numeric_quantile(spec, u).t == pytest.approx(float(ref), rel=1e-15)


@pytest.mark.parametrize("params,t", [
    (EKW5_DEEP, 9.0),
    (EKW5_DEEP, 9.889305377618204),
    (EKW5_DEEP, 30.0),
    (EKW5_WIDE_A, 720.0),   # e^(-d t^e) subnormal, ln(1 - h) near -29
    (EKW5_WIDE_A, 800.0),
    (EKW5_TINY_A, 20.0),    # e^(-d t^e) = 2e-9 and a e^(-d t^e) subnormal
    (EKW5_TINY_A, 720.0),
])
def test_exp_kum_weibull5_survival_where_1_minus_exp_rounds_to_1(params, t):
    # 1 - e^(-d t^e) rounds to 1 (or a times its log underflows), so H read inf
    # and survival 0 where the true survival is far above the smallest double
    ref = _ekw5_mp(params)[1](t)
    got = survival(validate("exp_kum_weibull5", **params), t)
    assert abs(got - ref) <= 1e-13 * ref, (got, ref)


def test_exp_kum_weibull5_root_below_the_smallest_positive_double_is_zero():
    # self-consistency: H jumps from 0 at t = 0 to about 1.41 at 5e-324, across
    # L(0.3) = 0.357, so the root lies below the smallest positive double and
    # t = 0.0, with residual 0.3, meets the certificate's bracket form
    spec = validate("exp_kum_weibull5", a=0.014561792584894623, b=2.2032645646899445,
                    c=0.19916277153687015, d=4.761442744068339, e=0.19851593374611587)
    assert quantile(spec, 0.3).t == 0.0
    assert cdf(spec, 0.0) <= 0.3 <= cdf(spec, 5e-324)


def test_analytic_quantile_stays_inside_a_finite_support():
    # kies4's closed form lands one ulp above hi = b at u = 1 - 1e-12
    spec = validate("kies4", a=0.4035754668344999, b=2.987187959885532,
                    c=0.3424755469625139, d=0.025661362234534867)
    u = np.array([0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0 ** -53])
    t = quantile_values(spec, u)
    assert (t >= spec.support[0]).all() and (t <= spec.support[1]).all(), t
    assert quantile(spec, 1.0 - 1e-12).t == spec.support[1]


def test_kies4_quantile_where_the_odds_power_overflows_is_b():
    # m = (L/c)^(1/d) is inf for this small d, and (a + b m)/(1 + m) was inf/inf
    b = 0.6367453990081883
    spec = validate("kies4", a=0.0, b=b, c=0.6324709542776092, d=0.005297169226822817)
    assert quantile(spec, 1.0 - 1e-12).t == b
    assert numeric_quantile(spec, 1.0 - 1e-12).t == b


def test_quantile_values_of_a_zero_dimensional_u_passes_the_gate():
    for spec in all_refspecs():
        if family_info(spec.family).quantile is not None:
            one = quantile_values(spec, np.array([0.3]))
            # a 0-d u runs the formula on a one-point array, so it gets its bits
            assert quantile_values(spec, np.float64(0.3)) == one[0], spec.family


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
        if family_info(spec.family).quantile is None:
            continue
        grid = GRID99 if spec.u_max == 1.0 else GRID99[GRID99 < spec.u_max]
        res = quantile(spec, grid)
        assert np.max(res.roundtrip_residual) <= 1e-9, spec.family


def test_quantile_strictly_increasing_all_refsets():
    for spec in all_refspecs():
        if family_info(spec.family).quantile is None:
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


def test_gen_weibull_underflowing_endpoint_names_its_parameters():
    # (a c)^(-1/b) rounds to 0: the support [0, 0) would be empty
    with pytest.raises(ParamError, match=r"gen_weibull: the upper endpoint \(a\*c\)\^\(-1/b\) "
                       r"underflows to 0 for a=78085\.74, b=0\.00708, c=24368\.26$"):
        validate("gen_weibull", a=78085.74, b=0.00708, c=24368.26)


@pytest.mark.parametrize("params,shown", [
    # (a c)^(-1/b) = (1e-6)^(-1000) passes the largest double
    (dict(a=1e-3, b=1e-3, c=1e-3), "a=0.001, b=0.001, c=0.001"),
    # a*c underflows to 0, whose negative power Python cannot form
    (dict(a=1e-200, b=1.0, c=1e-200), "a=1e-200, b=1.0, c=1e-200"),
])
def test_gen_weibull_overflowing_endpoint_raises_a_param_error(params, shown):
    with pytest.raises(ParamError) as info:
        validate("gen_weibull", **params)
    assert str(info.value) == "gen_weibull: the upper endpoint (a*c)^(-1/b) overflows for " + shown


@pytest.mark.parametrize("params", [
    dict(a=1.0, b=1.0, c=1.0), dict(a=0.5, b=2.0, c=0.5), dict(a=2.0, b=0.7, c=2.0),
    dict(a=3.47, b=0.682, c=42.9), dict(a=0.65, b=2.42, c=20.8),
])
def test_gen_weibull_quantiles_are_certified_in_both_tails_and_between(params):
    # next to hi, SF = (1 - (t/hi)^b)^(1/c) moves by up to 1e-8 per ulp of t
    # (a=2, b=.7, c=2), and a large c puts most of the mass there: each t must
    # lie within 1e-9 of u in F, or between neighbours whose F brackets u
    spec = validate("gen_weibull", **params)
    lo, hi = spec.support
    u = np.concatenate([np.geomspace(2.0 ** -54, 1e-3, 2000),
                        np.linspace(1e-3, 1.0 - 1e-3, 2000),
                        1.0 - np.geomspace(2.0 ** -53, 1e-3, 2000)])
    t = quantile_values(spec, u)
    close = np.abs(cdf(spec, t) - u) <= 1e-9
    bracketed = ((cdf(spec, np.nextafter(t, -np.inf)) <= u)
                 & (u <= cdf(spec, np.nextafter(t, np.inf))))
    bad = ~((t >= lo) & (t <= hi) & (close | bracketed))
    assert not bad.any(), "%d of %d fail, first at u=%r" % (bad.sum(), u.size, u[bad][0])


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
        _power_exp_root(np.array([0.5, arg]), 1.0, 1.0, 1.0)


def test_lambert_argument_check_survives_optimize_flag():
    # python -O strips assert statements; W(-0.1) itself would succeed
    code = (
        "import numpy as np\n"
        "from lambertq import DomainError\n"
        "from lambertq.families import _power_exp_root\n"
        "try:\n"
        "    _power_exp_root(np.array([-0.1]), 1.0, 1.0, 1.0)\n"
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


_PROBS = [1e-12, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-9]
_W_ARGS = [-0.3, -0.1, 0.0, 0.05, 0.2, 0.35]


@pytest.mark.parametrize("call,x", [
    (lambda u: quantile(validate("weibull2", a=1.0, b=2.0), u), _PROBS),
    (lambda u: numeric_quantile(validate("xie_lai3", a=1.0, b=2.0, c=1.0), u), _PROBS),
    (lambda u: gm_subtractive_quantile(validate("gompertz_makeham", a=1.0, b=1.0, c=1.0), u),
     _PROBS),
    (lambda x: w_series(x, 12), _W_ARGS),
    (tree_t, _W_ARGS),
], ids=["quantile", "numeric_quantile", "gm_subtractive_quantile", "w_series", "tree_t"])
def test_calls_leave_the_callers_float64_array_unchanged(call, x):
    # a float64 array is read in place, not copied, so no call may write to it
    # or hand it back as its result
    whole = np.array(x + x)
    for arr in (whole[:len(x)], whole[::2]):
        before = arr.copy()
        out = call(arr)
        assert arr.tobytes() == before.tobytes()
        assert not np.shares_memory(getattr(out, "t", out), whole)

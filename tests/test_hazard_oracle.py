"""The cumulative hazards H = -ln SF of the sixteen families whose
closed-form quantiles compose exponentiated, ratio, power and
power-exponential forms, against a 120-digit mpmath oracle.

The oracle transcribes each family's survival function as published, in
mpmath, and takes -ln SF of it; it shares no code with the library.  Where
1 - e^(-x) appears it uses expm1, since 1 - exp(-x) loses as many digits
as x has leading zeros, and x reaches 1e-47 here.  The check points are
the closed-form quantiles at 13 probabilities from the sampler's smallest
uniform 2^-54 to its largest 1 - 2^-53, on every reference set.  The
bound is 64 eps of |H| plus the condition term |t H'(t)|: an input t that
is itself only known to one rounding carries that much error into any H,
and next to gen_weibull's finite endpoint it dominates (t H'/H reaches
2.5e14 there).  Past the overflow of an exponential inside a formula, H
is checked on its own grid, where the library switches to a log form.

Every such switch goes through ``families._seam``.  Each seam of a hazard is
checked on a grid that crosses it, through the hazard's door, at 400 digits
(H reaches 1e-320 there), and a recorder on ``_seam`` fails if one of them is
never met with points on both of its sides.
"""

import sys

import mpmath
import numpy as np
import pytest

from lambertq import (cdf, families, family_info, numeric_quantile, quantile, quantile_values,
                      reference_specs, survival, validate)

mp = mpmath.mp
EPS = np.finfo(float).eps
U = (2.0 ** -54, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-4, 1 - 1e-8,
     1 - 1e-12, 1 - 2.0 ** -53)


def _ncdf(x):
    return mp.erfc(-x / mp.sqrt(2)) / 2


# survival functions as published, P(X > t), in the registry's parameter names
_SF = {
    "exp_weibull": lambda t, p: 1 - (-mp.expm1(-p["a"] * t ** p["b"])) ** p["c"],
    "exp_inv_weibull": lambda t, p: (-mp.expm1(-p["a"] * t ** -p["c"])) ** p["b"],
    # zero from the endpoint (a c)^(-1/b) on, where H is infinite
    "gen_weibull": lambda t, p: max(1 - p["a"] * p["c"] * t ** p["b"], 0) ** (1 / p["c"]),
    "ext_weibull": lambda t, p: (p["a"] * mp.exp(-(p["b"] * t) ** p["c"])
                                 / (1 - (1 - p["a"]) * mp.exp(-(p["b"] * t) ** p["c"]))),
    "odd_weibull": lambda t, p: 1 / (1 + mp.expm1(p["a"] * t ** p["b"]) ** p["c"]),
    "exp_kum_weibull5": lambda t, p: 1 - (1 - (1 - (-mp.expm1(-p["d"] * t ** p["e"])) ** p["a"])
                                          ** p["b"]) ** p["c"],
    "lai_weibull3": lambda t, p: mp.exp(-p["a"] * t ** p["b"] * mp.exp(p["c"] * t)),
    # one from d down, where H is 0
    "shifted_mod_weibull": lambda t, p: mp.exp(-(p["a"] * max(t - p["d"], 0)) ** p["b"]
                                               * mp.exp(p["c"] * (t - p["d"]))),
    "inv_mod_weibull": lambda t, p: -mp.expm1(-(p["a"] / t) ** p["b"] * mp.exp(p["c"] / t)),
    "gen_mod_weibull": lambda t, p: 1 - (-mp.expm1(-p["a"] * t ** p["c"] * mp.exp(p["b"] * t))) ** p["d"],
    "kum_mod_weibull": lambda t, p: (1 - (-mp.expm1(-p["c"] * t ** p["d"] * mp.exp(p["mu"] * t)))
                                     ** p["a"]) ** p["b"],
    "mod_lognormal": lambda t, p: 1 - _ncdf((p["b"] * mp.log(p["a"] * t) + p["c"] * t - p["d"])
                                            / p["mu"]),
    "gompertz_makeham": lambda t, p: mp.exp(-p["a"] * t - p["b"] / p["c"] * mp.expm1(p["c"] * t)),
    "mod_log_logistic": lambda t, p: 1 / (1 + (p["a"] * t) ** p["b"] * mp.exp(p["c"] * t)),
    "mod_power_lomax": lambda t, p: (1 + (p["a"] * t) ** p["b"] * mp.exp(p["c"] * t)) ** -p["d"],
    "mod_pareto4": lambda t, p: (1 + (p["a"] * (t - p["mu"])) ** (1 / p["b"])
                                 * mp.exp(p["c"] * (t - p["mu"]))) ** -p["d"],
}


def _oracle(family, params, t, dps=120):
    """H*(t) and t H*'(t), the latter by a backward difference 1e-50 t wide."""
    p = {k: mp.mpf(v) for k, v in params.items()}
    with mp.workdps(dps):
        t = mp.mpf(t)
        h = -mp.log(_SF[family](t, p))
        dt = t * mp.mpf(10) ** -50
        slope = (h + mp.log(_SF[family](t - dt, p))) / dt
    return h, t * slope


def _assert_matches_oracle(spec):
    fam = family_info(spec.family)
    ts = quantile_values(spec, np.array(U))
    with np.errstate(divide="ignore"):  # H = inf at gen_weibull's endpoint
        hs = fam.hazard(ts, spec.params)
    for u, t, h in zip(U, ts.tolist(), hs.tolist()):
        exact, cond = _oracle(spec.family, spec.params, t)
        bound = 64 * EPS * float(abs(exact) + abs(cond))
        assert h == exact or abs(h - exact) <= bound, (spec.params, u, t, h, float(exact))


@pytest.mark.parametrize("family", sorted(_SF))
def test_hazard_matches_mpmath_survival(family):
    for spec in reference_specs(family):
        _assert_matches_oracle(spec)


@pytest.mark.parametrize("a", [1e-6, 1e6])
def test_ext_weibull_hazard_keeps_its_digits_for_extreme_a(a):
    # for a >> 1, H = x + ln(1 - (1 - 1/a)(1 - e^-x)) would cancel to about
    # x/a and lose log10(a) digits
    _assert_matches_oracle(validate("ext_weibull", a=a, b=1.0, c=1.0))


@pytest.mark.parametrize("a", [1e-6, 0.5, 3.0, 1e6])
def test_ext_weibull_hazard_stays_finite_where_expm1_over_a_overflows(a):
    # (e^x - 1)/a overflows from x = 709.8 + ln a on (x = 696 at a = 1e-6);
    # H = x - ln a + ln(1 + (a-1) e^-x) there is still a normal double
    spec = validate("ext_weibull", a=a, b=1.0, c=1.0)
    ts = np.linspace(650.0, 720.0, 141)
    with np.errstate(over="ignore"):
        hs = family_info("ext_weibull").hazard(ts, spec.params)
    for t, h in zip(ts.tolist(), hs.tolist()):
        with mp.workdps(50):
            exact = -mp.log(_SF["ext_weibull"](mp.mpf(t), {"a": mp.mpf(a), "b": 1, "c": 1}))
        assert abs(h - exact) <= 4 * EPS * abs(exact), (a, t, h, float(exact))


def test_ext_weibull_survival_is_a_normal_double_past_the_overflow():
    # SF = a e^-x / (1 - (1-a) e^-x) = 1e6 e^-710 = 4.476e-303, not 0
    spec = validate("ext_weibull", a=1e6, b=1.0, c=1.0)
    with mp.workdps(50):
        exact = float(_SF["ext_weibull"](mp.mpf(710), {"a": mp.mpf(1e6), "b": 1, "c": 1}))
    assert survival(spec, 710.0) == pytest.approx(exact, rel=1e-13, abs=0.0)
    assert exact == pytest.approx(4.476e-303, rel=1e-3, abs=0.0)


# sets where an exponential inside H overflows while H is a moderate double;
# each grid crosses the overflow, c (t - lo) = 709.78
_OVERFLOW = [
    ("gompertz_makeham", dict(a=1e300, b=1e-6, c=1e303), np.linspace(6.5e-301, 7.6e-301, 45)),
    ("gompertz_makeham", dict(a=1e-3, b=1e-300, c=1.0), np.linspace(650.0, 760.0, 45)),
    ("mod_power_lomax", dict(a=0.6632716888698689, b=2.572568499084758, c=5.770621389528758,
                             d=0.016911574808415146), np.append(np.linspace(110.0, 140.0, 44), 619.8)),
    ("mod_log_logistic", dict(a=1e-3, b=0.5, c=1.0), np.linspace(650.0, 760.0, 45)),
    ("mod_pareto4", dict(a=1e-3, b=2.0, c=1.0, d=0.5, mu=3.0), np.linspace(653.0, 763.0, 45)),
]


@pytest.mark.parametrize("family,params,ts", _OVERFLOW, ids=[o[0] for o in _OVERFLOW])
def test_hazard_stays_finite_where_an_exponential_overflows(family, params, ts):
    spec = validate(family, **params)
    with np.errstate(over="ignore", invalid="ignore"):
        hs = family_info(family).hazard(ts, spec.params)
    past = 0
    for t, h in zip(ts.tolist(), hs.tolist()):
        exact, cond = _oracle(family, params, t)
        bound = 64 * EPS * float(abs(exact) + abs(cond))
        assert abs(h - exact) <= bound, (t, h, float(exact))
        past += params["c"] * (t - params.get("mu", 0.0)) > 709.79
    assert 0 < past < ts.size, past  # the grid crosses the overflow


def test_gompertz_makeham_quantiles_past_the_overflow_match_the_mpmath_root():
    # at c t > 709.78 the closed form takes its ``big`` branch, ln W + ln(a/b),
    # and the numeric route reads H there; both must find the mpmath root of
    # H(t) = -ln(1 - u).  The numeric t may sit up to its y-resolution off it:
    # y = log2(t) = -996 here, whose ulp is 1.1e-13, about 8e-14 of t
    params = dict(a=1e300, b=1e-6, c=1e303)
    spec, u = validate("gompertz_makeham", **params), 1.0 - 1e-12
    p = {k: mp.mpf(v) for k, v in params.items()}
    with mp.workdps(120):
        log_l = -mp.log1p(-mp.mpf(u))
        scale = mp.mpf(10) ** -301  # findroot's tolerance is absolute below |t| = 1
        root = scale * mp.findroot(
            lambda s: -mp.log(_SF["gompertz_makeham"](s * scale, p)) - log_l, mp.mpf("7.1479"))
    assert float(root) == pytest.approx(7.1479152399227412e-301, rel=1e-15, abs=0.0)
    analytic, numeric = quantile(spec, u), numeric_quantile(spec, u)
    assert analytic.t * params["c"] > 709.79
    assert abs(analytic.t - root) <= 2 * np.spacing(analytic.t), analytic.t
    assert abs(numeric.t - root) <= 1e-13 * numeric.t, numeric.t
    assert numeric.roundtrip_residual <= 1e-12


# sets where a hazard switches form on part of a block (ROADMAP item 7); each
# grid crosses its seam, so both sides meet the oracle
_GW_SMALL_B = dict(a=7.803473219652836, b=0.015779071711450654, c=1.195016355342264)
_GW_SMALL_B_HI = (_GW_SMALL_B["a"] * _GW_SMALL_B["c"]) ** (-1.0 / _GW_SMALL_B["b"])
_ODD_SMALL_C = dict(a=1.0000000000000004, b=1.0000000000000004, c=3.931165053264034e-05)
_GM_SUBNORMAL_B_OVER_C = dict(a=1e-3, b=1e-30, c=1e300)
# x^b underflows to 0 where e^y overflows to inf in the term k x^b e^y
_POWER_EXP = {
    "lai_weibull3": dict(a=101502.50671177823, b=101502.50671177823, c=101502.50671177823),
    "inv_mod_weibull": dict(a=8.762360698807577e-05, b=5656.332209588623, c=6.1219652440271135),
    "gen_mod_weibull": dict(a=1.0000230261160268, b=153439.0746428058, c=153439.0746428058, d=1.0),
    "shifted_mod_weibull": dict(a=0.17192595598455432, b=308.45603655488037, c=59365.00160673064,
                                d=1.0),
    "kum_mod_weibull": dict(a=79.43282347242814, b=0.008219366238985693, c=1.3198343915355595,
                            d=6498051.022029966, mu=13517.236595306551),
}
_SEAMS = [
    # x = (t/hi)^b passes 1/2 from t/hi = 1e-19 on, where t - hi rounds to -hi;
    # the grid runs on past hi, where the door writes inf
    ("gen_weibull", _GW_SMALL_B, _GW_SMALL_B_HI * np.append(np.geomspace(1e-25, 0.999, 50), [1, 2])),
    ("gen_weibull", dict(a=2.0, b=0.7, c=2.0), 4.0 ** (-1 / 0.7) * np.linspace(0.3, 0.7, 41)),
    ("ext_weibull", dict(a=3.0, b=1.0, c=1.0), np.linspace(650.0, 720.0, 36)),
    # e^x - 1 overflows from x = 709.78 on, where c ln(e^x - 1) is still small
    ("odd_weibull", _ODD_SMALL_C, np.linspace(650.0, 760.0, 45)),
    # e^x of x = -d t^e leaves the normal range from t = 26.6 on
    ("exp_kum_weibull5", dict(a=2.0, b=0.5, c=1.5, d=1.0, e=2.0), np.linspace(25.0, 28.0, 31)),
    ("gompertz_makeham", _GM_SUBNORMAL_B_OVER_C, np.linspace(1e-300, 7.5e-298, 45)),
    ("lai_weibull3", _POWER_EXP["lai_weibull3"],
     np.append(np.geomspace(1e-3, 0.56, 20), np.linspace(0.564, 0.5696, 30))),
    ("inv_mod_weibull", _POWER_EXP["inv_mod_weibull"], np.linspace(5.6e-4, 6e-4, 41)),
    # z = (a/t)^b e^(c/t) leaves the normal range from t = 6.01e-4 on, where
    # H = -ln(1 - e^-z) is -ln z, a moderate number
    ("inv_mod_weibull", _POWER_EXP["inv_mod_weibull"],
     np.append(np.linspace(5.9e-4, 6.2e-4, 16), np.geomspace(6.8e-4, 1.0, 30))),
    # (a/t)^2 stays a normal double on the side where e^(c/t) does not overflow
    ("inv_mod_weibull", dict(a=1.4e-155, b=2.0, c=1.0), np.linspace(1.38e-3, 1.5e-3, 41)),
    # (a/t)^2 is subnormal (13 bits at t = 1/700), then 0, while e^(c/t) lifts
    # the product: the in-range form read H(1/700) = 36.82527 (mpmath 36.82523),
    # then inf where the mpmath H is 207.93
    ("inv_mod_weibull", dict(a=1.43e-163, b=2.0, c=1.0), np.linspace(1 / 720, 1 / 600, 41)),
    ("inv_mod_weibull", dict(a=1e-200, b=2.0, c=1.0), np.linspace(1 / 720, 1 / 600, 41)),
    # t^300 is subnormal below t = 0.0941, where k e^y lifts the term to about
    # 1e-30 (the in-range form read 0), and e^(7000 t) overflows from 0.1014 on
    ("lai_weibull3", dict(a=1e300, b=300.0, c=1.0), np.linspace(0.08, 0.11, 31)),
    ("gen_mod_weibull", dict(a=1e300, b=1.0, c=300.0, d=1.0), np.linspace(0.08, 0.11, 31)),
    ("shifted_mod_weibull", dict(a=1.0, b=300.0, c=7000.0, d=0.0), np.linspace(0.08, 0.11, 31)),
    ("kum_mod_weibull", dict(a=1.0, b=1.0, c=1e300, d=300.0, mu=1.0), np.linspace(0.08, 0.11, 31)),
    ("gen_mod_weibull", _POWER_EXP["gen_mod_weibull"],
     np.append(np.geomspace(1e-3, 0.56, 20), np.linspace(0.564, 0.5696, 30))),
    ("shifted_mod_weibull", _POWER_EXP["shifted_mod_weibull"], 1.0 + np.geomspace(1e-4, 0.03, 60)),
    # H runs from 1e-279 to past the largest double within 4e-6 here
    ("kum_mod_weibull", _POWER_EXP["kum_mod_weibull"],
     np.append([0.01, 0.03], np.linspace(0.997925, 0.997929, 21))),
]


def _assert_door_matches_oracle(family, params, ts, dps=400):
    """H through ``_hazard`` against the oracle: within the bound above, or
    within the smallest subnormal where H* underflows, or inf where H* passes
    the largest double."""
    with np.errstate(all="ignore"):
        hs = families._hazard(validate(family, **params), np.asarray(ts, dtype=float))
    for t, h in zip(ts, hs.tolist()):
        exact, cond = _oracle(family, params, t, dps)
        if exact >= mp.mpf(2) ** 1024:
            assert h == np.inf, (t, h, float(exact))
        else:
            bound = 64 * EPS * float(abs(exact) + abs(cond)) + 2.0 ** -1074
            assert h == exact or abs(h - exact) <= bound, (t, h, float(exact))


@pytest.mark.parametrize("family,params,ts", _SEAMS, ids=[s[0] for s in _SEAMS])
def test_hazard_matches_mpmath_on_both_sides_of_a_seam(family, params, ts):
    _assert_door_matches_oracle(family, params, ts)


# every seam that a hazard takes, by the function that takes it: each is met
# with points on both of its sides on the grids of this file
_HAZARD_SEAMS = {
    "_hazard": 1,  # the door: the formula inside [lo, hi) only
    "_h_gen_weibull": 2,  # x > 1/2, and t < hi/2 inside it
    "_h_ext_weibull": 1, "_h_odd_weibull": 1, "_h_exp_kum_weibull5": 1,
    "_h_lai_weibull3": 1, "_h_inv_mod_weibull": 2, "_h_gen_mod_weibull": 1,
    "_h_shifted_mod_weibull": 1, "_h_kum_mod_weibull": 1,
    "_h_lomax_like": 1, "_h_gompertz_makeham": 1,
}


def test_every_seam_of_a_hazard_is_met_on_both_sides(monkeypatch):
    seam, met = families._seam, {}

    def recording(out, where, form, *args):
        frame = sys._getframe(1)
        while frame is not None and not frame.f_code.co_name.startswith(("_h_", "_hazard")):
            frame = frame.f_back
        if frame is not None:
            mixed = bool(where.any()) and not bool(where.all())
            key = (frame.f_code.co_name, form.__code__)
            met[key] = met.get(key, False) or mixed
        return seam(out, where, form, *args)

    grids = [(s.family, s.params, quantile_values(s, np.array(U)))
             for f in sorted(_SF) for s in reference_specs(f)]
    monkeypatch.setattr(families, "_seam", recording)
    for family, params, ts in grids + _OVERFLOW + _SEAMS:
        with np.errstate(all="ignore"):
            families._hazard(validate(family, **params), np.asarray(ts, dtype=float))
    one_sided = sorted(name for (name, _), mixed in met.items() if not mixed)
    counts = {}
    for name, _ in met:
        counts[name] = counts.get(name, 0) + 1
    assert not one_sided and counts == _HAZARD_SEAMS, (one_sided, counts)


def test_inv_mod_weibull_hazard_where_its_term_underflows():
    # z = (a/t)^b e^(c/t) is 0 in doubles at t = 0.01, where H = -ln z
    spec = validate("inv_mod_weibull", **_POWER_EXP["inv_mod_weibull"])
    exact, _ = _oracle("inv_mod_weibull", _POWER_EXP["inv_mod_weibull"], 0.01)
    with np.errstate(divide="ignore"):  # the in-range form takes ln 0 first
        h = families._hazard(spec, np.array([0.01])).item()
    assert float(exact) == pytest.approx(26183.4890599, rel=1e-11, abs=0.0)
    assert h == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def test_gen_weibull_with_a_small_b_far_below_its_endpoint():
    # x = 0.5 at t = 1e-80, 1e-19 of hi, where t - hi is -hi to the last bit
    spec, p = validate("gen_weibull", **_GW_SMALL_B), {k: mp.mpf(v) for k, v in _GW_SMALL_B.items()}
    with mp.workdps(50):
        exact = 1 - _SF["gen_weibull"](mp.mpf(1e-80), p)
    assert cdf(spec, 1e-80) == pytest.approx(float(exact), rel=4 * EPS, abs=0.0)
    assert float(exact) == pytest.approx(0.4492465788908954, rel=1e-15, abs=0.0)
    analytic, numeric = quantile(spec, 0.5), numeric_quantile(spec, 0.5)
    assert analytic.roundtrip_residual <= 1e-12 and numeric.roundtrip_residual <= 1e-12
    assert numeric.t == pytest.approx(analytic.t, rel=1e-13, abs=0.0)


def test_odd_weibull_with_a_small_c_past_the_overflow_of_expm1():
    # H(724.08) is ln(1 + (e^x - 1)^c) = 0.7075, not c ln(e^x - 1) = 0.0285
    spec = validate("odd_weibull", **_ODD_SMALL_C)
    exact, _ = _oracle("odd_weibull", _ODD_SMALL_C, 724.0773439350247)
    with np.errstate(over="ignore"):
        h = families._hazard(spec, np.array([724.0773439350247])).item()
    assert h == pytest.approx(float(exact), rel=4 * EPS, abs=0.0)
    assert h == pytest.approx(0.70748, rel=1e-5, abs=0.0)
    analytic, numeric = quantile(spec, 0.6), numeric_quantile(spec, 0.6)
    assert analytic.roundtrip_residual <= 1e-12 and numeric.roundtrip_residual <= 1e-12
    assert analytic.t == pytest.approx(10314.12068978142, rel=1e-13, abs=0.0)
    assert numeric.t == pytest.approx(analytic.t, rel=1e-13, abs=0.0)


def test_gompertz_makeham_term_where_b_over_c_is_subnormal():
    # b/c = 1e-330: (b/c) expm1(c t) kept 4 digits of the term; H(7e-298) was a t alone
    spec = validate("gompertz_makeham", **_GM_SUBNORMAL_B_OVER_C)
    exact, _ = _oracle("gompertz_makeham", _GM_SUBNORMAL_B_OVER_C, 7e-298)
    h = families._hazard(spec, np.array([7e-298])).item()
    assert float(exact) == pytest.approx(1.0142320547350011e-26, rel=1e-15, abs=0.0)
    assert h == pytest.approx(float(exact), rel=64 * EPS, abs=0.0)


@pytest.mark.parametrize("family", sorted(_POWER_EXP))
def test_power_exponential_term_is_not_nan_where_its_power_underflows(family):
    # parent: NaN H, a NaN roundtrip residual and a numeric route that raised at every u
    spec = validate(family, **_POWER_EXP[family])
    analytic, numeric = quantile(spec, 1e-6), numeric_quantile(spec, 1e-6)
    assert analytic.roundtrip_residual <= 1e-12 and numeric.roundtrip_residual <= 1e-12
    assert numeric.t == pytest.approx(analytic.t, rel=1e-12, abs=0.0)


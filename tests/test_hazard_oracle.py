"""The cumulative hazards H = -ln SF of the fourteen families whose
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
"""

import mpmath
import numpy as np
import pytest

from lambertq import (family_info, numeric_quantile, quantile, quantile_values, reference_specs,
                      survival, validate)

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


def _oracle(family, params, t):
    """H*(t) and t H*'(t), the latter by a backward difference 1e-50 t wide."""
    p = {k: mp.mpf(v) for k, v in params.items()}
    with mp.workdps(120):
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
    assert float(root) == pytest.approx(7.1479152399227412e-301, rel=1e-15)
    analytic, numeric = quantile(spec, u), numeric_quantile(spec, u)
    assert analytic.t * params["c"] > 709.79
    assert abs(analytic.t - root) <= 2 * np.spacing(analytic.t), analytic.t
    assert abs(numeric.t - root) <= 1e-13 * numeric.t, numeric.t
    assert numeric.roundtrip_residual <= 1e-12

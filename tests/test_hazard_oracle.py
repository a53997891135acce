"""The cumulative hazards H = -ln SF of the ten families whose closed-form
quantiles compose exponentiated, ratio and power forms, against a
120-digit mpmath oracle.

The oracle transcribes each family's survival function as published, in
mpmath, and takes -ln SF of it; it shares no code with the library.  Where
1 - e^(-x) appears it uses expm1, since 1 - exp(-x) loses as many digits
as x has leading zeros, and x reaches 1e-47 here.  The check points are
the closed-form quantiles at 13 probabilities from the sampler's smallest
uniform 2^-54 to its largest 1 - 2^-53, on every reference set.  The
bound is 64 eps of |H| plus the condition term |t H'(t)|: an input t that
is itself only known to one rounding carries that much error into any H,
and next to gen_weibull's finite endpoint it dominates (t H'/H reaches
2.5e14 there).
"""

import mpmath
import numpy as np
import pytest

from lambertq import family_info, quantile_values, reference_specs, validate

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

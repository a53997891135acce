"""Registry of 28 lifetime distribution families.

Each family carries its parameter box, support, a closed-form quantile
where one exists, and its cumulative hazard H(t) = -ln SF(t), its one
representation of the distribution.  The box is data: ``Family.rules``, an
ordered tuple of ``Bound`` rules (one parameter > 0, >= 0, > 1 or != 0) and
``Cross`` rules (several parameters at once).  ``validate`` walks it in order
and raises at the first rule broken, and the property tests draw inside it.  It has one door, ``_hazard``:
the formula inside the support [lo, hi), 0 below lo, +inf from hi on, NaN at
a NaN t.  ``survival`` (so also ``validate``'s endpoint gate) and the numeric
inverter read H there, and one form, SF = exp(-max(H, 0)), turns H into the
survival, the CDF and both quantile routes' residuals.  Shapes in and out
follow the contract in ``_arrays``.  Fourteen quantiles are elementary closed
forms, ten involve the principal branch of the Lambert W function, and four
families have no analytic inverse at all (callers use the numeric inverter
for those).

Six catalogued closed forms do not actually invert their own CDF (wrong
prefactor, swapped symbols, survival function inverted instead of the
CDF, and so on).  For those families the registry stores both the form
exactly as printed in the source catalog (``printed_quantile``, kept for
the verification harness) and a corrected derivation (``quantile``,
used for evaluation).  The two are never silently merged; the harness
measures both and reports the discrepancy.

Formulas are evaluated with ``log1p``/``expm1`` throughout, and a term
1 - u^r or 1 - e^x that is only ever logged is carried as its logarithm
(``_log1mexp``), in the quantiles and the hazards alike; where that logarithm
itself underflows to -0 (``exp_kum_weibull5``'s nested powers), ln(-ln(1 - e^x))
is carried instead.  So roundtrip
residuals |F(Q(u)) - u| stay near machine precision across the u range,
including the tails where F or SF would round to 0 or 1, and a Lambert W
argument that is negative or NaN raises DomainError (the principal branch
is single-valued only on [0, inf)).
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._arrays import bounds, points, shaped
from .errors import BracketError, DomainError, NoAnalyticFormError, ParamError
from .lambertw import w_principal, w_principal_from_log
from .normal import std_normal_cdf, std_normal_quantile

__all__ = [
    "DistributionSpec",
    "QuantilePath",
    "QuantileResult",
    "HazardShape",
    "family_ids",
    "family_info",
    "validate",
    "survival",
    "cdf",
    "quantile",
    "gm_subtractive_quantile",
    "wl_hazard",
]

_INF = math.inf


class QuantilePath(Enum):
    """How a quantile value was obtained."""

    ANALYTIC_VERIFIED = "AnalyticVerified"    # printed closed form, confirmed correct
    ANALYTIC_CORRECTED = "AnalyticCorrected"  # corrected derivation (printed form is wrong)
    NUMERIC = "Numeric"                       # bracketed numeric inversion


@dataclass(frozen=True)
class QuantileResult:
    """Quantile value plus provenance and the roundtrip residual |F(t) - u|."""

    t: float
    path: QuantilePath
    roundtrip_residual: float


@dataclass(frozen=True)
class DistributionSpec:
    """A validated family/parameter combination.

    ``support`` is the half-open interval [lo, hi).  ``u_max`` is below 1
    only for defective parameterizations (Gompertz with b < 0), where the
    distribution places mass 1 - u_max at infinity and quantiles are only
    defined for u < u_max.
    """

    family: str
    params: dict
    support: tuple
    u_max: float = 1.0


class HazardShape(Enum):
    INCREASING = "Increasing"
    BATHTUB = "Bathtub"


# --------------------------------------------------------------------------
# small numeric helpers

def _L(u):
    """-ln(1 - u), accurate for small u."""
    return -np.log1p(-u)


_MINUS_LN2 = -math.log(2.0)
_LOG_EPS = -53.0 * math.log(2.0)  # ln 2^-53: below it, 1 - e^x rounds to 1
_LOG_TINY = -1022.0 * math.log(2.0)  # ln of the smallest normal double


def _log1mexp(x):
    """ln(1 - exp(x)) for x < 0, accurate at both ends (Maechler 2012).  One
    point computes its side's form alone; a block computes both and selects,
    since the sampler's and the verifier's blocks straddle -ln 2."""
    if x.size == 1:
        return np.log(-np.expm1(x)) if x.item() > _MINUS_LN2 else np.log1p(-np.exp(x))
    return np.where(x > _MINUS_LN2, np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


# --------------------------------------------------------------------------
# family record

_KINDS = {  # kind of a parameter rule -> (test, the words after "must")
    ">0": (lambda v: v > 0.0, "be positive"),
    ">=0": (lambda v: v >= 0.0, "be nonnegative"),
    ">1": (lambda v: v > 1.0, "exceed 1"),
    "!=0": (lambda v: v != 0.0, "be nonzero"),
}


class Bound(NamedTuple):
    """Rule on one parameter: ``param`` must be ``kind``, a key of ``_KINDS``.
    A ``hint`` stands in the message in place of "(got v)"."""

    param: str
    kind: str
    hint: str = ""

    def problem(self, p):
        holds, words = _KINDS[self.kind]
        v = p[self.param]
        if not holds(v):
            return "%s must %s%s" % (self.param, words,
                                     "; " + self.hint if self.hint else " (got %r)" % v)
        return None


class Cross(NamedTuple):
    """Rule on several parameters: ``text`` states it, and ``problem(p)``
    returns the message after "<family>: " when p breaks it, else None."""

    text: str
    problem: Callable


def _positive(*names):
    return tuple(Bound(n, ">0") for n in names)


@dataclass(frozen=True)
class Family:
    name: str
    label: str
    params: tuple
    rules: tuple                         # the parameter box: Bound and Cross rules, checked in order
    support_desc: str
    quantile: Optional[Callable]         # (u array, params) -> t array; None => numeric only
    hazard: Callable                     # (t array inside the support, params) -> H = -ln SF
    support: Callable = lambda p: (0.0, _INF)    # params -> (lo, hi)
    printed_quantile: Optional[Callable] = None  # catalogued form when it differs
    note: str = ""
    u_max: Optional[Callable] = None     # params -> valid u upper bound

    @property
    def corrected(self):
        """True when ``quantile`` is a corrected derivation of a wrong printed form."""
        return self.printed_quantile is not None


_FAMILIES = {}


def _register(fam):
    _FAMILIES[fam.name] = fam


# --------------------------------------------------------------------------
# closed-form families

def _h_weibull2(t, p):
    return p["a"] * t ** p["b"]


def _q_weibull2(u, p):
    return (_L(u) / p["a"]) ** (1.0 / p["b"])


_register(Family(
    name="weibull2",
    label="Weibull",
    params=("a", "b"),
    rules=_positive("a", "b"),
    support_desc="[0, inf)",
    hazard=_h_weibull2,
    quantile=_q_weibull2,
))


def _h_gompertz2(t, p):
    return (p["a"] / p["b"]) * np.expm1(p["b"] * t)


def _q_gompertz2(u, p):
    return np.log1p((p["b"] / p["a"]) * _L(u)) / p["b"]


_register(Family(
    name="gompertz2",
    label="Gompertz",
    params=("a", "b"),
    rules=(Bound("a", ">0"),
           Bound("b", "!=0", "the b = 0 limit is the exponential, use weibull2 with b = 1")),
    support_desc="[0, inf)",
    hazard=_h_gompertz2,
    quantile=_q_gompertz2,
    # b < 0 leaves survival mass exp(a/b) at infinity: quantiles exist only
    # for u below 1 - exp(a/b)
    u_max=lambda p: -math.expm1(p["a"] / p["b"]) if p["b"] < 0.0 else 1.0,
))


def _h_trunc_log_weibull(t, p):
    return np.exp((t - p["a"]) / p["b"])


def _q_trunc_log_weibull(u, p):
    return p["a"] + p["b"] * np.log(_L(u))


_register(Family(
    name="trunc_log_weibull",
    label="log-Weibull (Gumbel minimum)",
    params=("a", "b"),
    rules=(Bound("b", ">0"),),
    support=lambda p: (-_INF, _INF),
    support_desc="(-inf, inf)",
    hazard=_h_trunc_log_weibull,
    quantile=_q_trunc_log_weibull,
))


def _h_flexible_weibull(t, p):
    return np.exp(p["a"] * t - p["b"] / t)


def _q_flexible_weibull(u, p):
    # a t - b/t = y  =>  a t^2 - y t - b = 0, positive root; written in the
    # form that avoids cancellation for either sign of y
    a, b = p["a"], p["b"]
    y = np.log(_L(u))
    root = np.sqrt(y * y + 4.0 * a * b)
    return np.where(y > 0.0, (y + root) / (2.0 * a), (2.0 * b) / (root - y))


def _q_flexible_weibull_printed(u, p):
    # catalogued form: t = -ln(-ln(1-u) +- sqrt(ln(-ln(1-u))^2 + 4ab)) / (2a);
    # evaluated for both signs, the harness keeps the better one per point
    a, b = p["a"], p["b"]
    ell = _L(u)
    root = np.sqrt(np.log(ell) ** 2 + 4.0 * a * b)
    tp = -np.log(ell + root) / (2.0 * a)
    tm = -np.log(ell - root) / (2.0 * a)
    return np.stack([tp, tm])


_register(Family(
    name="flexible_weibull",
    label="flexible Weibull",
    params=("a", "b"),
    rules=_positive("a", "b"),
    support_desc="(0, inf)",
    hazard=_h_flexible_weibull,
    quantile=_q_flexible_weibull,
    printed_quantile=_q_flexible_weibull_printed,
    note=(
        "printed inverse takes the logarithm of the quadratic-root expression "
        "instead of solving it: the exponent satisfies a*t^2 - y*t - b = 0 with "
        "y = ln(-ln(1-u)), so t = (y + sqrt(y^2 + 4ab)) / (2a)"
    ),
))


def _h_pham(t, p):
    return np.expm1(t ** p["b"] * math.log(p["a"]))


def _q_pham(u, p):
    return (np.log1p(_L(u)) / math.log(p["a"])) ** (1.0 / p["b"])


_register(Family(
    name="pham",
    label="Pham loglog",
    params=("a", "b"),
    rules=(Bound("a", ">1"), Bound("b", ">0")),
    support_desc="[0, inf)",
    hazard=_h_pham,
    quantile=_q_pham,
))


def _h_exp_weibull(t, p):
    # SF = 1 - inner^c with inner = 1 - exp(-a t^b)
    return -_log1mexp(p["c"] * _log1mexp(-p["a"] * t ** p["b"]))


def _q_exp_weibull(u, p):
    log_inner = _log1mexp(np.log(u) / p["c"])  # ln(1 - u^(1/c))
    return (-log_inner / p["a"]) ** (1.0 / p["b"])


_register(Family(
    name="exp_weibull",
    label="exponentiated Weibull",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="[0, inf)",
    hazard=_h_exp_weibull,
    quantile=_q_exp_weibull,
))


def _h_mod_weibull_ext(t, p):
    return p["a"] * p["b"] * np.expm1((t / p["b"]) ** p["c"])


def _q_mod_weibull_ext(u, p):
    return p["b"] * np.log1p(_L(u) / (p["a"] * p["b"])) ** (1.0 / p["c"])


def _q_mod_weibull_ext_printed(u, p):
    # catalogued form carries prefactor a where the inversion yields b
    return p["a"] * np.log1p(_L(u) / (p["a"] * p["b"])) ** (1.0 / p["c"])


_register(Family(
    name="mod_weibull_ext",
    label="modified Weibull extension",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="[0, inf)",
    hazard=_h_mod_weibull_ext,
    quantile=_q_mod_weibull_ext,
    printed_quantile=_q_mod_weibull_ext_printed,
    note=(
        "printed inverse swaps the roles of a and b: the scale outside the "
        "bracket must be b (the same b that divides t inside the survival "
        "function), not a"
    ),
))


def _h_exp_inv_weibull(t, p):
    # SF = inner^b with inner = 1 - exp(-a t^-c)
    return -p["b"] * _log1mexp(-p["a"] * t ** -p["c"])


def _q_exp_inv_weibull(u, p):
    log_inner = _log1mexp(np.log1p(-u) / p["b"])  # ln(1 - (1-u)^(1/b))
    return (p["a"] / -log_inner) ** (1.0 / p["c"])


_register(Family(
    name="exp_inv_weibull",
    label="exponentiated inverse Weibull",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="(0, inf)",
    hazard=_h_exp_inv_weibull,
    quantile=_q_exp_inv_weibull,
))


def _h_gen_weibull(t, p):
    # SF = (1 - x)^(1/c) with x = a c t^b = (t/hi)^b.  Once x passes 1/2, 1 - x
    # is formed from t - hi, which is exact there (Sterbenz)
    b, c = p["b"], p["c"]
    x = p["a"] * c * t ** b
    h = -np.log1p(-x) / c
    near = x > 0.5
    if near.any():
        hi = _gen_weibull_hi(p)
        h[near] = -np.log(-np.expm1(b * np.log1p((t[near] - hi) / hi))) / c
    return h


def _q_gen_weibull(u, p):
    # (t/hi)^b = 1 - (1-u)^c.  Once that passes 1/2, t = hi (1 - (1-u)^c)^(1/b)
    # is carried in logs, so that t keeps its distance from hi (there
    # log_s = ln (1-u)^c < -ln 2, and ln(1 - e^log_s) is log1p(-e^log_s))
    b, c = p["b"], p["c"]
    log_s = c * np.log1p(-u)
    num = -np.expm1(log_s)
    t = (num / (p["a"] * c)) ** (1.0 / b)
    near = num > 0.5
    if near.any():
        t[near] = _gen_weibull_hi(p) * np.exp(np.log1p(-np.exp(log_s[near])) / b)
    return t


def _gen_weibull_hi(p):
    """(a c)^(-1/b), where SF reaches 0; inf where it passes the largest double."""
    try:
        return (p["a"] * p["c"]) ** (-1.0 / p["b"])
    except (OverflowError, ZeroDivisionError):  # a*c underflowing to 0 raises the latter
        return _INF


def _gen_weibull_endpoint(p):
    hi = _gen_weibull_hi(p)
    if not 0.0 < hi < _INF:
        return ("the upper endpoint (a*c)^(-1/b) %s for a=%r, b=%r, c=%r"
                % ("underflows to 0" if hi == 0.0 else "overflows", p["a"], p["b"], p["c"]))
    return None


_register(Family(
    name="gen_weibull",
    label="generalized Weibull",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c") + (Cross("0 < (a*c)^(-1/b) < inf", _gen_weibull_endpoint),),
    # the survival function hits zero where a*c*t^b = 1, i.e. t = (a c)^(-1/b)
    support=lambda p: (0.0, _gen_weibull_hi(p)),
    support_desc="[0, (a*c)^(-1/b))",
    hazard=_h_gen_weibull,
    quantile=_q_gen_weibull,
))


def _h_ext_weibull(t, p):
    # SF = a e / (1 - (1-a) e) with e = exp(-x), x = (b t)^c, so
    # H = ln(1 + (e^x - 1)/a): no cancellation for any a.  (e^x - 1)/a
    # overflows from x = 709.8 + ln a on; there H = x - ln a + ln(1 + (a-1) e^-x)
    a, x = p["a"], (p["b"] * t) ** p["c"]
    h = np.log1p(np.expm1(x) / a)
    over = h == _INF
    if over.any():
        x = x[over]
        h[over] = x - math.log(a) + np.log1p((a - 1.0) * np.exp(-x))
    return h


def _q_ext_weibull(u, p):
    # F = u  <=>  (b t)^c = ln[(1 - u(1-a)) / (1-u)] = ln[1 + a u/(1-u)]
    val = np.log1p(p["a"] * u / (1.0 - u))
    return val ** (1.0 / p["c"]) / p["b"]


def _q_ext_weibull_printed(u, p):
    # catalogued form: t = (1/b) * ( ln[((2a-1) + u(1-a)) / u] )^(1/c)
    a = p["a"]
    val = np.log(((2.0 * a - 1.0) + u * (1.0 - a)) / u)
    return val ** (1.0 / p["c"]) / p["b"]


_register(Family(
    name="ext_weibull",
    label="extended Weibull (Marshall-Olkin)",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="[0, inf)",
    hazard=_h_ext_weibull,
    quantile=_q_ext_weibull,
    printed_quantile=_q_ext_weibull_printed,
    note=(
        "printed inverse has numerator (2a-1) + u(1-a) over u, which does not "
        "invert the CDF; solving survival = 1-u gives (b t)^c = "
        "ln[(1 - u(1-a))/(1-u)] = ln[1 + a u/(1-u)]"
    ),
))


def _h_gen_power_weibull(t, p):
    return np.expm1(np.log1p(p["a"] * t ** p["b"]) / p["c"])


def _q_gen_power_weibull(u, p):
    num = np.expm1(p["c"] * np.log1p(_L(u)))  # (1 - ln(1-u))^c - 1
    return (num / p["a"]) ** (1.0 / p["b"])


_register(Family(
    name="gen_power_weibull",
    label="generalized power Weibull",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="[0, inf)",
    hazard=_h_gen_power_weibull,
    quantile=_q_gen_power_weibull,
))


def _h_odd_weibull(t, p):
    # SF = 1 / (1 + (exp(x) - 1)^c), x = a t^b.  Where (e^x - 1)^c overflows,
    # H = c ln(e^x - 1) = c (x + ln(1 - e^-x)) to double precision
    x = p["a"] * t ** p["b"]
    h = np.log1p(np.expm1(x) ** p["c"])
    over = h == _INF
    if over.any():
        h[over] = p["c"] * (x[over] + np.log1p(-np.exp(-x[over])))
    return h


def _q_odd_weibull(u, p):
    # ln(1 + r^(1/c)), r = u/(1-u).  Where r^(1/c) overflows, the 1 lies below
    # its last bit, and the log is taken in logs: (ln u - ln(1-u))/c
    c = p["c"]
    inner = np.log1p((u / (1.0 - u)) ** (1.0 / c))
    over = inner == _INF
    if over.any():
        inner[over] = (np.log(u[over]) - np.log1p(-u[over])) / c
    return (inner / p["a"]) ** (1.0 / p["b"])


_register(Family(
    name="odd_weibull",
    label="odd Weibull",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="[0, inf)",
    hazard=_h_odd_weibull,
    quantile=_q_odd_weibull,
))


def _h_kies4(t, p):
    return p["c"] * ((t - p["a"]) / (p["b"] - t)) ** p["d"]


def _q_kies4(u, p):
    m = (_L(u) / p["c"]) ** (1.0 / p["d"])
    # m = inf for a small d, where the ratio is inf/inf but t = b to the last bit
    return np.where(m == _INF, p["b"], (p["a"] + p["b"] * m) / (1.0 + m))


def _endpoint_order(p):
    if not 0.0 <= p["a"] < p["b"]:
        return "endpoints must satisfy 0 <= a < b (got a=%r, b=%r)" % (p["a"], p["b"])
    return None


_ENDPOINT_ORDER = Cross("0 <= a < b", _endpoint_order)  # kies4 and phani5


_register(Family(
    name="kies4",
    label="Kies",
    params=("a", "b", "c", "d"),
    rules=(_ENDPOINT_ORDER,) + _positive("c", "d"),
    support=lambda p: (p["a"], p["b"]),
    support_desc="[a, b)",
    hazard=_h_kies4,
    quantile=_q_kies4,
))


def _ekw5_deep(x, log_1mz, shift):
    """ln(1 - z^k) for z = 1 - e^x and shift = -ln k, where the chain's
    log_1mz = ln(1 - exp(k ln z)) lost it.  It carries lam = ln(-k ln z) =
    ln(-ln(1 - e^x)) - shift, whose first term is x to the last bit once
    e^x < 2^-53, and ln(1 - z^k) = ln(1 - exp(-e^lam)) is lam itself once
    e^lam < 2^-53.  The chain forms e^x and e^lam, which leave the normal range
    below ln 2^-1022 (ln z then underflows to -0); only those points take the
    lam form, written into the caller's temporary log_1mz, so the others keep
    the chain's bits."""
    cut = _LOG_TINY + max(shift, 0.0)  # x < cut: e^x or e^lam is subnormal
    if not bounds(x)[0] < cut:
        return log_1mz
    deep = x < cut
    x = x[deep]
    lam = np.where(x < _LOG_EPS, x, np.log(-_log1mexp(x))) - shift
    log_1mz[deep] = np.where(lam < _LOG_EPS, lam, _log1mexp(-np.exp(lam)))
    return log_1mz


def _h_exp_kum_weibull5(t, p):
    # SF = 1 - inner^c, inner = 1 - (1-h)^b, h = g^a, g = 1 - exp(-d t^e)
    x = -p["d"] * t ** p["e"]
    log_1mh = _ekw5_deep(x, _log1mexp(p["a"] * _log1mexp(x)), -math.log(p["a"]))
    return -_log1mexp(p["c"] * _log1mexp(p["b"] * log_1mh))


def _ekw5_chain(log_s1, p):
    # shared tail of the inversion: s1 = 1 - (outer power of the probability)
    x = log_s1 / p["b"]
    log_s2 = _log1mexp(x)                         # ln(1 - s1^(1/b))
    log_s3 = _ekw5_deep(x, _log1mexp(log_s2 / p["a"]), math.log(p["a"]))  # ln(1 - s2^(1/a))
    return (-log_s3 / p["d"]) ** (1.0 / p["e"])


def _q_exp_kum_weibull5(u, p):
    return _ekw5_chain(_log1mexp(np.log(u) / p["c"]), p)     # ln(1 - u^(1/c))


def _q_exp_kum_weibull5_printed(u, p):
    # catalogued form starts from (1-u)^(1/c): it inverts the survival
    # function, i.e. F(t(u)) = 1 - u instead of u
    return _ekw5_chain(_log1mexp(np.log1p(-u) / p["c"]), p)  # ln(1 - (1-u)^(1/c))


_register(Family(
    name="exp_kum_weibull5",
    label="exponentiated Kumaraswamy Weibull",
    params=("a", "b", "c", "d", "e"),
    rules=_positive("a", "b", "c", "d", "e"),
    support_desc="[0, inf)",
    hazard=_h_exp_kum_weibull5,
    quantile=_q_exp_kum_weibull5,
    printed_quantile=_q_exp_kum_weibull5_printed,
    note=(
        "printed inverse substitutes (1-u)^(1/c) where u^(1/c) is required: "
        "as printed it solves SF(t) = u, returning the (1-u)-quantile; the "
        "corrected form inverts the CDF"
    ),
))


# --------------------------------------------------------------------------
# Lambert-W families

def _w0(arg):
    if not bounds(arg)[0] >= 0.0:  # a NaN fails too
        raise DomainError("lambert argument must be nonnegative and not NaN")
    return w_principal(arg).value


def _h_lai_weibull3(t, p):
    return p["a"] * t ** p["b"] * np.exp(p["c"] * t)


def _q_lai_weibull3(u, p):
    b, c = p["b"], p["c"]
    arg = (c / b) * (_L(u) / p["a"]) ** (1.0 / b)
    return (b / c) * _w0(arg)


_register(Family(
    name="lai_weibull3",
    label="modified Weibull (exponential tilt)",
    params=("a", "b", "c"),
    rules=_positive("a", "b") + (Bound("c", ">0", "the c = 0 limit has no exponential "
                                              "tilt and is exactly weibull2(a, b)"),),
    support_desc="[0, inf)",
    hazard=_h_lai_weibull3,
    quantile=_q_lai_weibull3,
))


def _h_inv_mod_weibull(t, p):
    # SF = 1 - exp(-(a/t)^b e^(c/t))
    return -_log1mexp(-((p["a"] / t) ** p["b"]) * np.exp(p["c"] / t))


def _q_inv_mod_weibull(u, p):
    b, c = p["b"], p["c"]
    arg = (c / (p["a"] * b)) * (-np.log(u)) ** (1.0 / b)
    return (c / b) / _w0(arg)


_register(Family(
    name="inv_mod_weibull",
    label="inverse modified Weibull",
    params=("a", "b", "c"),
    rules=_positive("a", "b") + (Bound("c", ">0", "the c = 0 limit is the inverse Weibull, "
                                              "use exp_inv_weibull with b = 1"),),
    support_desc="(0, inf)",
    hazard=_h_inv_mod_weibull,
    quantile=_q_inv_mod_weibull,
))


def _h_xie_lai3(t, p):
    at = p["a"] * t
    return at ** p["b"] + at ** (1.0 / p["b"]) + p["c"] * t


_register(Family(
    name="xie_lai3",
    label="Xie-Lai conjugate-shape Weibull",
    params=("a", "b", "c"),
    rules=(Bound("a", ">=0"), Bound("b", ">1"), Bound("c", ">0")),
    support_desc="[0, inf)",
    hazard=_h_xie_lai3,
    quantile=None,
    note=(
        "no closed-form inverse: t enters through (a t)^b, (a t)^(1/b) and a "
        "linear term at once, which no substitution reduces to w*exp(w)"
    ),
))


def _h_gen_mod_weibull(t, p):
    # SF = 1 - inner^d with inner = 1 - exp(-a t^c e^(b t))
    return -_log1mexp(p["d"] * _log1mexp(-p["a"] * t ** p["c"] * np.exp(p["b"] * t)))


def _q_gen_mod_weibull(u, p):
    b, c = p["b"], p["c"]
    base = -_log1mexp(np.log(u) / p["d"])         # -ln(1 - u^(1/d))
    arg = (b / c) * (base / p["a"]) ** (1.0 / c)
    return (c / b) * _w0(arg)


_register(Family(
    name="gen_mod_weibull",
    label="generalized modified Weibull",
    params=("a", "b", "c", "d"),
    rules=_positive("a", "c", "d") + (Bound("b", ">0", "the b = 0 limit has no exponential "
                                                   "tilt and is exactly exp_weibull(a, c, d)"),),
    support_desc="[0, inf)",
    hazard=_h_gen_mod_weibull,
    quantile=_q_gen_mod_weibull,
))


def _h_shifted_mod_weibull(t, p):
    tau = t - p["d"]
    return (p["a"] * tau) ** p["b"] * np.exp(p["c"] * tau)


def _q_shifted_mod_weibull(u, p):
    a, b, c = p["a"], p["b"], p["c"]
    arg = (c / (a * b)) * _L(u) ** (1.0 / b)
    return p["d"] + (b / c) * _w0(arg)


_register(Family(
    name="shifted_mod_weibull",
    label="shifted modified Weibull",
    params=("a", "b", "c", "d"),
    rules=_positive("a", "b") + (
        Bound("c", ">0", "the c = 0 limit has no exponential tilt and is a shifted "
                         "weibull2(a^b, b)"),
        Bound("d", ">=0")),
    support=lambda p: (p["d"], _INF),
    support_desc="[d, inf)",
    hazard=_h_shifted_mod_weibull,
    quantile=_q_shifted_mod_weibull,
))


def _h_additive_weibull(t, p):
    return p["a"] * t ** p["b"] + p["c"] * t ** p["d"]


_register(Family(
    name="additive_weibull",
    label="additive Weibull",
    params=("a", "b", "c", "d"),
    rules=_positive("a", "b", "c", "d"),
    support_desc="[0, inf)",
    hazard=_h_additive_weibull,
    quantile=None,
    note=(
        "no closed-form inverse: the two Weibull exponents b and d cannot be "
        "untangled into a single w*exp(w) pattern"
    ),
))


def _h_nadarajah_kotz(t, p):
    return p["a"] * t ** p["b"] * np.expm1(p["c"] * t ** p["d"])


_register(Family(
    name="nadarajah_kotz",
    label="Nadarajah-Kotz Weibull extension",
    params=("a", "b", "c", "d"),
    rules=_positive("a", "d") + (
        Bound("b", ">=0"),
        Bound("c", ">0", "c = 0 makes the survival function identically 1")),
    support_desc="[0, inf)",
    hazard=_h_nadarajah_kotz,
    quantile=None,
    note="no closed-form inverse is available for this survival function",
))


def _h_kum_mod_weibull(t, p):
    # SF = inner^b, inner = 1 - (1-e)^a, e = exp(-c t^d e^(mu t))
    log_1me = _log1mexp(-p["c"] * t ** p["d"] * np.exp(p["mu"] * t))
    return -p["b"] * _log1mexp(p["a"] * log_1me)


def _q_kum_mod_weibull(u, p):
    d, mu = p["d"], p["mu"]
    log_r1 = _log1mexp(np.log1p(-u) / p["b"])      # ln(1 - (1-u)^(1/b))
    log_r2 = _log1mexp(log_r1 / p["a"])            # ln(1 - r1^(1/a))
    base = (-log_r2 / p["c"]) ** (1.0 / d)
    arg = (mu / d) * base
    return (d / mu) * _w0(arg)


_register(Family(
    name="kum_mod_weibull",
    label="Kumaraswamy modified Weibull",
    params=("a", "b", "c", "d", "mu"),
    rules=_positive("a", "b", "c", "d") + (
        Bound("mu", ">0", "the mu = 0 limit has no exponential tilt (a plain "
                          "Kumaraswamy-Weibull, not registered here)"),),
    support_desc="[0, inf)",
    hazard=_h_kum_mod_weibull,
    quantile=_q_kum_mod_weibull,
))


def _h_phani5(t, p):
    return p["c"] * (t - p["a"]) ** p["d"] / (p["b"] - t) ** p["e"]


_register(Family(
    name="phani5",
    label="Phani five-parameter Kies extension",
    params=("a", "b", "c", "d", "e"),
    rules=(_ENDPOINT_ORDER,) + _positive("c", "d", "e"),
    support=lambda p: (p["a"], p["b"]),
    support_desc="[a, b)",
    hazard=_h_phani5,
    quantile=None,
    note=(
        "no closed-form inverse: the numerator and denominator carry distinct "
        "exponents d and e, so the defining equation is not reducible to w*exp(w)"
    ),
))


def _h_lomax_like(t, p, d):
    return d * np.log1p((p["a"] * t) ** p["b"] * np.exp(p["c"] * t))


def _q_lomax_like(u, p, d):
    # (a t)^b e^(c t) = (1-u)^(-1/d) - 1 = g  =>  t = (b/c) W((c/(a b)) g^(1/b))
    a, b, c = p["a"], p["b"], p["c"]
    g = np.expm1(-np.log1p(-u) / d)
    arg = (c / (a * b)) * g ** (1.0 / b)
    return (b / c) * _w0(arg)


_register(Family(
    name="mod_log_logistic",
    label="modified log-logistic",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="[0, inf)",
    hazard=lambda t, p: _h_lomax_like(t, p, 1.0),
    quantile=lambda u, p: _q_lomax_like(u, p, 1.0),
))


def _h_gompertz_makeham(t, p):
    return p["a"] * t + (p["b"] / p["c"]) * np.expm1(p["c"] * t)


def _gm_log_arg(l_u, p):
    """ln A for the Lambert W argument A = (b/a) * exp((b + c L(u))/a)."""
    a, b, c = p["a"], p["b"], p["c"]
    return math.log(b / a) + (b + c * l_u) / a


def _q_gompertz_makeham(u, p):
    # final catalogued form: t = (1/c) ln[(a/b) W(A)].  (a/b) W(A) = e^(c t) is
    # formed before the log, so ln W does not cancel against ln(a/b) at tiny a;
    # where it overflows (c L(u)/b past the largest double), ln W + ln(a/b)
    # stands in.  The outer log cancels where c t is small; there one Newton
    # step on a t + (b/c) expm1(c t) = L(u) from t0 = L(u)/(a + b) is exact to
    # about (c t)^3/8 relative.  Where ln A overflows, a t lies below the last
    # bit of L(u), and t is the a -> 0 limit ln(1 + c L(u)/b)/c, taken in logs
    # because c L(u)/b may overflow too
    a, b, c = p["a"], p["b"], p["c"]
    l_u = _L(u)
    log_arg = _gm_log_arg(l_u, p)
    over = ~np.isfinite(log_arg)
    w = w_principal_from_log(np.where(over, 0.0, log_arg))
    t = np.log((a / b) * w) / c
    big = t == _INF
    if big.any():
        t[big] = (np.log(w[big]) + math.log(a / b)) / c
    if over.any():
        t[over] = np.logaddexp(0.0, math.log(c) - math.log(b) + np.log(l_u[over])) / c
    small = c * t < 1e-4
    if small.any():
        l_s = l_u[small]
        t0 = l_s / (a + b)
        t[small] = t0 - (a * t0 + (b / c) * np.expm1(c * t0) - l_s) / (a + b * np.exp(c * t0))
    return t


def gm_subtractive_quantile(spec, u):
    """Algebraically equivalent Gompertz-Makeham quantile written without the
    outer logarithm: t = (b - c ln(1-u))/(a c) - W(A)/c, same W argument A.

    Kept alongside the primary form as a regression check on the derivation;
    the two must agree to ~1e-10 over the whole u range.
    """
    if spec.family != "gompertz_makeham":
        raise ParamError("gm_subtractive_quantile: spec must be gompertz_makeham")
    v, shape = points(u)
    _check_u_open(v, spec)
    p = spec.params
    a, c = p["a"], p["c"]
    t = (p["b"] + c * _L(v)) / (a * c) - w_principal_from_log(_gm_log_arg(_L(v), p)) / c
    return shaped(t, shape)


_register(Family(
    name="gompertz_makeham",
    label="Gompertz-Makeham",
    params=("a", "b", "c"),
    rules=_positive("a", "b", "c"),
    support_desc="[0, inf)",
    hazard=_h_gompertz_makeham,
    quantile=_q_gompertz_makeham,
))


_register(Family(
    name="mod_power_lomax",
    label="modified power Lomax",
    params=("a", "b", "c", "d"),
    rules=_positive("a", "b", "c", "d"),
    support_desc="[0, inf)",
    hazard=lambda t, p: _h_lomax_like(t, p, p["d"]),
    quantile=lambda u, p: _q_lomax_like(u, p, p["d"]),
))


def _h_mod_pareto4(t, p):
    tau = t - p["mu"]
    return p["d"] * np.log1p((p["a"] * tau) ** (1.0 / p["b"]) * np.exp(p["c"] * tau))


def _q_mod_pareto4(u, p):
    # (a tau)^(1/b) e^(c tau) = g  =>  b c tau e^(b c tau) = (b c / a) g^b
    a, b, c = p["a"], p["b"], p["c"]
    g = np.expm1(-np.log1p(-u) / p["d"])
    arg = (b * c / a) * g ** b
    return p["mu"] + _w0(arg) / (b * c)


def _q_mod_pareto4_printed(u, p):
    # catalogued form omits the b*c/a factor inside W
    b, c = p["b"], p["c"]
    g = np.expm1(-np.log1p(-u) / p["d"])
    return p["mu"] + _w0(g ** b) / (c * b)


_register(Family(
    name="mod_pareto4",
    label="modified Pareto IV",
    params=("a", "b", "c", "d", "mu"),
    rules=_positive("a", "b", "c", "d") + (Bound("mu", ">=0"),),
    support=lambda p: (p["mu"], _INF),
    support_desc="[mu, inf)",
    hazard=_h_mod_pareto4,
    quantile=_q_mod_pareto4,
    printed_quantile=_q_mod_pareto4_printed,
    note=(
        "printed W argument is g^b alone; inverting the survival function "
        "requires the factor b*c/a inside W so the shift and scale cancel: "
        "t = mu + W((b c / a) g^b)/(b c) with g = (1-u)^(-1/d) - 1"
    ),
))


def _h_mod_lognormal(t, p):
    # SF = 1 - Phi(z) = Phi(-z); tail = Phi(-|z|) is the smaller of F and SF,
    # so neither branch subtracts from 1
    z = (p["b"] * np.log(p["a"] * t) + p["c"] * t - p["d"]) / p["mu"]
    tail = std_normal_cdf(-np.abs(z))
    return np.where(z > 0.0, -np.log(tail), -np.log1p(-tail))


def _q_mod_lognormal(u, p):
    # b ln(a t) + c t = mu*z + d with z the standard normal quantile of u
    a, b, c = p["a"], p["b"], p["c"]
    z = std_normal_quantile(u)
    log_arg = math.log(c / (a * b)) + (p["mu"] * z + p["d"]) / b
    return (b / c) * w_principal_from_log(log_arg)


def _q_mod_lognormal_printed(u, p):
    # catalogued form relies on a normal "CDF" integrated from 0 rather than
    # -inf; its inverse only exists for u < 1/2 (as Phi^-1(u + 1/2))
    a, b, c = p["a"], p["b"], p["c"]
    out = np.full(np.shape(u), np.nan)
    mask = u < 0.5
    if mask.any():
        z = std_normal_quantile(u[mask] + 0.5)
        log_arg = math.log(c / (a * b)) + (p["mu"] * z + p["d"]) / b
        out[mask] = (b / c) * w_principal_from_log(log_arg)
    return out


_register(Family(
    name="mod_lognormal",
    label="modified lognormal",
    params=("a", "b", "c", "d", "mu"),
    rules=_positive("a", "b", "c", "mu") + (Bound("d", ">=0"),),
    support_desc="(0, inf)",
    hazard=_h_mod_lognormal,
    quantile=_q_mod_lognormal,
    printed_quantile=_q_mod_lognormal_printed,
    note=(
        "printed form inherits a normal CDF integrated from 0 (a half "
        "integral), whose inverse is undefined for u >= 1/2; implemented with "
        "the standard normal CDF and ln[(a t)^b e^(c t)] expanded as "
        "b ln(a t) + c t"
    ),
))


# --------------------------------------------------------------------------
# public operations

def family_ids():
    """All 28 family identifiers, in registry order."""
    return tuple(_FAMILIES)


def family_info(name):
    """The registry record for one family (parameters, support, notes)."""
    if name not in _FAMILIES:
        raise ParamError("unknown family %r; valid ids: %s" % (name, ", ".join(_FAMILIES)))
    return _FAMILIES[name]


def validate(family, **params):
    """Check parameters against the family's parameter box and build a spec.

    Raises ParamError naming the first rule of ``Family.rules`` that the
    parameters break; the returned
    DistributionSpec carries the normalized support interval (and, for
    defective parameterizations, the valid quantile range u_max).
    """
    fam = family_info(family)
    missing = [n for n in fam.params if n not in params]
    extra = [k for k in params if k not in fam.params]
    if missing or extra:
        problems = []
        if missing:
            problems.append("missing parameter(s) %s" % ", ".join(missing))
        if extra:
            problems.append("unknown parameter(s) %s" % ", ".join(sorted(extra)))
        raise ParamError(
            "%s: %s; expected %s"
            % (family, "; ".join(problems), ", ".join(fam.params))
        )
    p = {k: float(params[k]) for k in fam.params}
    for k, v in p.items():
        if not math.isfinite(v):
            raise ParamError("%s: %s must be finite (got %r)" % (family, k, v))
    for rule in fam.rules:
        problem = rule.problem(p)
        if problem:
            raise ParamError("%s: %s" % (family, problem))
    lo, hi = fam.support(p)
    u_max = fam.u_max(p) if fam.u_max is not None else 1.0
    spec = DistributionSpec(family=family, params=p, support=(lo, hi), u_max=u_max)
    _endpoint_consistency(spec)
    return spec


def _endpoint_consistency(spec):
    """Sanity gate: SF must be 1 at a finite lo, and must fall below 1/2
    within 1e-13 of the support's width below a finite hi."""
    lo, hi = spec.support
    if math.isfinite(lo):
        s_lo = survival(spec, lo)
        if not abs(s_lo - 1.0) <= 1e-9:  # a NaN fails too
            raise ParamError(
                "%s: survival at the lower endpoint is %r, expected 1 "
                "(support/SF inconsistency)" % (spec.family, s_lo)
            )
    if math.isfinite(hi):
        span = hi - (lo if math.isfinite(lo) else 0.0)
        ts = hi - span * np.array([1e-3, 1e-6, 1e-9, 1e-13])
        s_hi = survival(spec, ts)
        if not (np.all(np.isfinite(s_hi)) and float(np.min(s_hi)) < 0.5):
            raise ParamError(
                "%s: survival is %r at 1e-3, 1e-6, 1e-9 and 1e-13 of the support's "
                "width below the upper endpoint %r; the gate needs each to be a "
                "number and one below 1/2" % (spec.family, s_hi.tolist(), hi)
            )


def _hazard(spec, t):
    """H(t) on a float array, the one caller of ``Family.hazard``: the formula
    inside [lo, hi), 0 below lo, +inf from hi on, NaN at a NaN t.  Its ``bounds``
    (one ``item()`` on one point, one min and one max on more; a NaN fails both)
    let an all-inside array skip the masks.  Callers hold an ``np.errstate``."""
    fam = _FAMILIES[spec.family]
    lo, hi = spec.support
    t_min, t_max = bounds(t)
    if lo <= t_min and t_max < hi:
        return fam.hazard(t, spec.params)
    out = np.full(t.shape, np.nan)
    out[t < lo] = 0.0
    out[t >= hi] = _INF
    inside = (t >= lo) & (t < hi)
    if inside.any():
        out[inside] = fam.hazard(t[inside], spec.params)
    return out


def _sf(h):
    """SF = exp(-max(H, 0)) from an H array, the one form that ``survival``,
    ``cdf`` and both quantile routes' residuals use.  One point of H is read
    as a Python float and returns one; ``np.exp`` stays the NumPy ufunc
    either way, so both give the same bits."""
    if h.size == 1:
        return float(np.exp(-max(h.item(), 0.0)))
    return np.exp(-np.maximum(h, 0.0))


def survival(spec, t):
    """SF(t) = P(X > t) = exp(-H(t)), with H read through ``_hazard``: 1 below
    the support, 0 from hi on, NaN at a NaN t."""
    v, shape = points(t)
    with np.errstate(all="ignore"):
        return shaped(_sf(_hazard(spec, v)), shape)


def cdf(spec, t):
    """F(t) = 1 - survival(t), exactly."""
    return 1.0 - survival(spec, t)


def _check_u_open(v, spec):
    v_min, v_max = bounds(v)
    if not (v_min > 0.0 and v_max < 1.0):  # a NaN makes both fail
        raise DomainError("quantile: u must lie strictly inside (0, 1)")
    if v_max >= spec.u_max:
        raise DomainError(
            "%s: defective for these parameters -- survival mass %r remains at "
            "infinity, so u must stay below u_max = %r"
            % (spec.family, 1.0 - spec.u_max, spec.u_max)
        )


def _gated_quantile(spec, v):
    """The gate of ``quantile_values`` and ``quantile``, on a float array v;
    callers hold an ``np.errstate``."""
    fam = family_info(spec.family)
    if fam.quantile is None:
        raise NoAnalyticFormError(
            "%s has no analytic quantile; use numeric_quantile" % spec.family
        )
    _check_u_open(v, spec)
    t = fam.quantile(v, spec.params)
    t_min, t_max = bounds(t)  # a NaN anywhere makes both NaN
    if not (-_INF < t_min and t_max < _INF):
        worst = float(v[~np.isfinite(t)].max())
        raise BracketError(
            "%s: the analytic quantile is not a finite double for u up to %r (survival "
            "mass may remain beyond the largest double)" % (spec.family, worst))
    lo, hi = spec.support
    if t_min < lo or t_max > hi:
        t = np.clip(t, lo, hi)
    return t


def _residual(spec, t, v):
    """|F(t) - u| = |(1 - SF(t)) - u| from one H read, a Python float for one
    point; callers hold an ``np.errstate``."""
    sf = _sf(_hazard(spec, t))
    return abs((1.0 - sf) - v.item()) if v.size == 1 else np.abs((1.0 - sf) - v)


def quantile(spec, u):
    """Analytic quantile Q(u) with provenance and roundtrip residual.

    Uses the family's closed form (corrected derivation where the
    catalogued form is wrong).  Families without an analytic inverse
    raise NoAnalyticFormError; use numeric_quantile for those.  The formula
    and the residual run under one ``np.errstate``.
    """
    v, shape = points(u)
    with np.errstate(all="ignore"):
        t = _gated_quantile(spec, v)
        res = _residual(spec, t, v)
    path = (QuantilePath.ANALYTIC_CORRECTED if family_info(spec.family).corrected
            else QuantilePath.ANALYTIC_VERIFIED)
    return QuantileResult(shaped(t, shape), path, shaped(res, shape))


def quantile_values(spec, u):
    """Vectorized analytic quantile values without result metadata.

    Same preconditions as ``quantile``; the sampler uses it directly.  Keeps
    the numeric route's contract: t lies in the support [lo, hi] (a t past an
    end by roundoff is set to that end), and a t that is not a finite double
    raises BracketError, as ``invert_cdf`` does where no bracket exists.
    """
    v, shape = points(u)
    with np.errstate(all="ignore"):
        return shaped(_gated_quantile(spec, v), shape)


def wl_hazard(a, b, c, t):
    """Hazard rate a(b + c t) t^(b-1) e^(c t) of the tilted Weibull, with its
    shape class: increasing for b >= 1, bathtub (down, then up) for 0 < b < 1.
    """
    a, b, c, t = float(a), float(b), float(c), float(t)
    if not (a > 0.0 and b > 0.0):
        raise ParamError("wl_hazard: a and b must be positive")
    if not c >= 0.0:
        raise ParamError("wl_hazard: c must be nonnegative")
    if not t > 0.0:
        raise DomainError("wl_hazard: t must be positive (got %r)" % t)
    rate = a * (b + c * t) * t ** (b - 1.0) * math.exp(c * t)
    shape = HazardShape.INCREASING if b >= 1.0 else HazardShape.BATHTUB
    return rate, shape

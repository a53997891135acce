"""Tests of the benchmark's own checks:  python3 -m pytest perfbench

Every check must pass a correct output and reject a perturbed value, a
NaN, a value outside the support and a swapped order.  The inputs are
built here from exact formulas, not from the library.
"""

import json
import math
import os

import numpy as np
import pytest

import checks
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def swap(a, i=3, j=7):
    a = np.array(a, dtype=float)
    a[[i, j]] = a[[j, i]]
    return a


def with_value(a, i, v):
    a = np.array(a, dtype=float)
    a[i] = v
    return a


# --------------------------------------------------------------------------
# splitmix64

def test_splitmix64_matches_published_vectors():
    # outputs of the reference splitmix64.c for seed 1234567
    assert checks.splitmix64(1234567, 5) == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


@pytest.mark.parametrize("seed", [0, 1, 1234567, checks.MASK64, 0x9E3779B97F4A7C15])
def test_vectorised_splitmix64_equals_the_recipe(seed):
    assert checks.splitmix64_array(seed, 257).tolist() == checks.splitmix64(seed, 257)


def test_uniforms_use_the_top_53_bits_centred():
    words = checks.splitmix64(42, 4)
    expect = [((w >> 11) + 0.5) * 2.0 ** -53 for w in words]
    assert checks.uniforms(42, 4).tolist() == expect


def test_derived_seeds_depend_on_every_key():
    seeds = {checks.derive_seed(s, r, c) for s in (1, 2) for r in (0, 1) for c in (0, 1, 2)}
    assert len(seeds) == 12
    assert all(0 <= s < 2 ** 63 for s in seeds)


# --------------------------------------------------------------------------
# quantile properties, on the exponential: Q(u) = -ln(1-u), F(x) = 1 - e^-x

U = checks.uniforms(7, 64)
X = -np.log1p(-U)
SUPPORT = (0.0, math.inf)


def F(x):
    return -np.expm1(-np.asarray(x, dtype=float))


def test_correct_quantiles_pass():
    assert checks.quantile_problems(U, X, F, SUPPORT, checks.NUMERIC_TOL) == []


@pytest.mark.parametrize("bad", [
    with_value(X, 5, X[5] * (1 + 1e-6)),   # perturbed
    with_value(X, 5, math.nan),            # NaN
    with_value(X, 5, math.inf),            # not finite
])
def test_quantile_check_rejects_wrong_values(bad):
    assert checks.quantile_problems(U, bad, F, SUPPORT, checks.CLOSED_FORM_TOL)


def test_quantile_check_rejects_values_outside_the_support():
    bad = with_value(X, 5, -X[5])

    def agreeing(t):  # F of |t|, so that only the support can reject
        return F(np.abs(t))

    assert checks.quantile_problems(U, bad, agreeing, SUPPORT, checks.CLOSED_FORM_TOL)
    assert checks.bad_quantiles(U, X, F, (0.0, X.max() * 0.5), checks.CLOSED_FORM_TOL).any()


def test_support_end_itself_is_accepted():
    # the double nearest a quantile close to a finite end can be the end
    x = np.array([0.0, 1.0])
    assert not checks.bad_quantiles([0.0, 1.0], x, lambda t: np.clip(t, 0.0, 1.0),
                                    (0.0, 1.0), 1e-9).any()


def test_quantile_check_rejects_swapped_order():
    bad = swap(X)
    assert checks.quantile_problems(U, bad, F, SUPPORT, checks.CLOSED_FORM_TOL)
    assert checks.order_problems(U, bad)
    order = np.argsort(U, kind="stable")
    assert checks.quantile_problems(U, bad, F, SUPPORT, 1.0, order)   # order alone rejects


def test_numeric_tolerance_is_tighter_than_closed_form():
    bad = with_value(X, 5, X[5] + 1e-10 / (1 - U[5]))   # moves F by about 1e-10
    assert checks.quantile_problems(U, bad, F, SUPPORT, checks.NUMERIC_TOL)
    assert not checks.quantile_problems(U, bad, F, SUPPORT, checks.CLOSED_FORM_TOL)


def steep(t):
    """A CDF on [1, 1 + 1e-8] that rises by 2.2e-8 between neighbouring doubles."""
    return np.clip((np.asarray(t, dtype=float) - 1.0) * 1e8, 0.0, 1.0)


def test_ulp_bracketed_quantile_is_accepted_where_no_double_is_closer():
    u = np.array([0.3, 0.3000000051])
    x = 1.0 + u * 1e-8                    # the nearest doubles to the true quantiles
    assert np.abs(steep(x) - u).max() > checks.CLOSED_FORM_TOL
    assert not checks.bad_quantiles(u, x, steep, (1.0, 1.0 + 1e-8), checks.CLOSED_FORM_TOL).any()
    off = x + 4 * np.spacing(x)           # four doubles away: no longer bracketing u
    assert checks.bad_quantiles(u, off, steep, (1.0, 1.0 + 1e-8), checks.CLOSED_FORM_TOL).all()


# --------------------------------------------------------------------------
# Weibull textbook inverse

A, B = 0.5, 2.0
XW = (-np.log1p(-U) / A) ** (1.0 / B)


def test_weibull2_textbook_form_passes():
    assert checks.weibull2_problems(U, XW, A, B) == []


@pytest.mark.parametrize("bad", [
    with_value(XW, 2, XW[2] * (1 + 1e-9)),
    with_value(XW, 2, math.nan),
    with_value(XW, 2, -XW[2]),
    swap(XW),
])
def test_weibull2_check_rejects(bad):
    assert checks.weibull2_problems(U, bad, A, B)


# --------------------------------------------------------------------------
# kernels against SciPy, on values built from w*e^w = x

W0 = np.linspace(-0.9, 30.0, 41)
XW0 = W0 * np.exp(W0)
W1 = np.linspace(-40.0, -1.1, 41)
XW1 = W1 * np.exp(W1)


def test_exact_lambert_w_values_pass():
    assert checks.lambertw_problems(XW0, W0, 0) == []
    assert checks.lambertw_problems(XW1, W1, -1) == []


@pytest.mark.parametrize("branch, x, w, bad", [
    (0, XW0, W0, with_value(W0, 4, W0[4] * (1 + 1e-9))),
    (0, XW0, W0, with_value(W0, 4, math.nan)),
    (0, XW0, W0, with_value(W0, 0, -1.0 - 1e-3)),    # below the principal branch
    (-1, XW1, W1, with_value(W1, 40, -0.999)),       # above the lower branch
    (0, XW0, W0, swap(W0)),
    (-1, XW1, W1, swap(W1)),
])
def test_lambert_w_check_rejects(branch, x, w, bad):
    assert checks.lambertw_problems(x, bad, branch)


P = np.array([1e-300, 1e-12, 0.025, 0.5, 0.975, 1 - 1e-12])
Z = np.array([-37.0471, -7.034484, -1.959964, 0.0, 1.959964, 7.034484])


def test_normal_quantile_check():
    from scipy.special import ndtri

    q = ndtri(P)
    assert np.allclose(q, Z, rtol=1e-5, atol=1e-5)   # the table above, to its digits
    assert checks.normal_quantile_problems(P, q) == []
    for bad in (with_value(q, 2, q[2] * (1 + 1e-9)), with_value(q, 2, math.nan),
                with_value(q, 5, math.inf), swap(q, 1, 4)):
        assert checks.normal_quantile_problems(P, bad)


def test_kernel_inputs_stay_in_each_domain():
    inputs = checks.kernel_inputs()
    e = math.exp(-1.0)
    _, _, x0 = inputs["w_principal"]
    assert x0.min() > -e
    for name in ("w_lower", "w_lower_tiny"):
        _, _, x = inputs[name]
        assert x.min() > -e and x.max() < 0.0
    _, _, p = inputs["std_normal_quantile"]
    assert p.min() > 0.0 and p.max() < 1.0


# --------------------------------------------------------------------------
# bit identity and CLI documents

def test_identical_check():
    assert checks.identical_problems(X, X.copy(), "x") == []
    for bad in (with_value(X, 1, np.nextafter(X[1], 2.0)), with_value(X, 1, math.nan),
                with_value(X, 1, -X[1]), swap(X), X[:-1]):
        assert checks.identical_problems(X, bad, "x")


def test_csv_and_json_documents_round_trip():
    csv_text = "value\n" + "".join(repr(float(v)) + "\n" for v in X)
    assert checks.identical_problems(checks.parse_csv_values(csv_text), X, "csv") == []
    doc = json.dumps({"n": X.size, "values": [float(v) for v in X]})
    assert checks.identical_problems(checks.parse_json_values(doc), X, "json") == []


def test_malformed_documents_are_rejected():
    with pytest.raises(ValueError):
        checks.parse_csv_values("x\n1.0\n")
    with pytest.raises(ValueError):
        checks.parse_json_values(json.dumps({"n": 3, "values": [1.0, 2.0]}))


# --------------------------------------------------------------------------
# errata verdicts

REGISTRY = {"weibull2": (True, False), "ext_weibull": (True, True), "xie_lai3": (False, False)}
ROWS = [("weibull2", "VerifiedAsPrinted", 3e-16), ("ext_weibull", "CorrectedFormula", math.inf),
        ("xie_lai3", "NoClosedForm", None)]


def test_errata_matching_the_registry_passes():
    assert checks.errata_problems(ROWS, REGISTRY) == []


@pytest.mark.parametrize("bad", [
    [("weibull2", "VerifiedAsPrinted", 1e-3)] + ROWS[1:],          # error contradicts verdict
    [("weibull2", "VerifiedAsPrinted", math.nan)] + ROWS[1:],      # NaN error
    [("weibull2", "VerifiedAsPrinted", -1e-16)] + ROWS[1:],        # negative error
    [("weibull2", "CorrectedFormula", 0.5)] + ROWS[1:],            # wrong verdict
    [ROWS[0], ROWS[1], ("xie_lai3", "NoClosedForm", 0.0)],         # error without a formula
    [ROWS[1], ROWS[0], ROWS[2]],                                   # swapped order
    ROWS[:2],                                                      # a family missing
])
def test_errata_check_rejects(bad):
    assert checks.errata_problems(bad, REGISTRY)


def test_per_set_verdicts():
    # a corrected family's printed form may pass on one parameter set
    assert checks.per_set_verdict_problems("ext_weibull", "VerifiedAsPrinted", 1e-16, True, True) == []
    assert checks.per_set_verdict_problems("ext_weibull", "CorrectedFormula", 0.3, True, True) == []
    assert checks.per_set_verdict_problems("ext_weibull", "CorrectedFormula", 1e-16, True, True)
    assert checks.per_set_verdict_problems("weibull2", "CorrectedFormula", 0.3, True, False)
    assert checks.per_set_verdict_problems("weibull2", "VerifiedAsPrinted", math.nan, True, False)


def test_errata_csv_document():
    text = ("family,verdict,max_roundtrip_error_printed,note\n"
            "weibull2,VerifiedAsPrinted,3e-16,\"a, b\"\nxie_lai3,NoClosedForm,,n\n")
    assert checks.parse_errata(text, "csv") == [("weibull2", "VerifiedAsPrinted", 3e-16),
                                                ("xie_lai3", "NoClosedForm", None)]


# --------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints

def test_benchmark_json_matches_the_metrics_run_prints():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])

"""Tests for counter-seeded uniform generation, inverse-transform sampling,
and the goodness-of-fit statistics."""

import json
import math

import numpy as np
import pytest
from conftest import quad, splitmix64_reference, uniform_reference

from lambertq import (
    ALGORITHM_ID,
    DomainError,
    LambertQError,
    NoAnalyticFormError,
    SampleBatch,
    SampleMethod,
    SeededStream,
    batch_to_csv,
    batch_to_json,
    cdf,
    counter_uniforms,
    empirical_moments,
    family_ids,
    family_info,
    ks_statistic,
    reference_params,
    quantile_values,
    sample,
    survival,
    validate,
)
from lambertq import sampling
from lambertq.sampling import counter_words


# ---------------------------------------------------------------------------
# the uniform stream

@pytest.mark.parametrize("seed", [0, 1, 42, 1234567, 2**64 - 1])
def test_counter_words_match_reference_recipe(seed):
    got = counter_words(seed, 0, 16)
    expect = splitmix64_reference(seed, 16)
    assert [int(w) for w in got] == expect


def test_counter_words_offset_slices_the_same_stream():
    whole = counter_words(99, 0, 32)
    tail = counter_words(99, 10, 22)
    np.testing.assert_array_equal(whole[10:], tail)


def test_uniform_conversion_rule():
    got = counter_uniforms(7, 0, 8)
    expect = uniform_reference(7, 8)
    assert list(got) == expect


def test_uniforms_strictly_inside_unit_interval():
    u = counter_uniforms(2024, 0, 200000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_top_word_is_clamped_below_one():
    # the one word with k >> 11 = 2**53 - 1 rounds to exactly 1.0 unclamped
    seed = 3558559446808474027
    assert int(counter_words(seed, 0, 1)[0]) >> 11 == 2**53 - 1
    assert counter_uniforms(seed, 0, 1)[0] == 1 - 2**-53


def test_stream_advances_position():
    s = SeededStream(seed=5)
    a = s.uniforms(10)
    assert s.position == 10
    b = s.uniforms(5)
    assert s.position == 15
    joined = counter_uniforms(5, 0, 15)
    np.testing.assert_array_equal(np.concatenate((a, b)), joined)
    assert s.algorithm_id == ALGORITHM_ID


# ---------------------------------------------------------------------------
# sampling

def test_sample_deterministic_rerun():
    spec = validate("weibull2", a=1.0, b=1.0)
    b1 = sample(spec, 1000, seed=42)
    b2 = sample(spec, 1000, seed=42)
    np.testing.assert_array_equal(b1.values, b2.values)
    assert b1.seed == 42
    assert b1.method is SampleMethod.ANALYTIC
    assert b1.algorithm_id == ALGORITHM_ID


def test_sample_values_are_quantiles_of_the_stream():
    spec = validate("weibull2", a=1.0, b=1.0)
    batch = sample(spec, 3, seed=42)
    u = counter_uniforms(42, 0, 3)
    np.testing.assert_array_equal(batch.values, -np.log1p(-u))


def test_parallel_equals_serial():
    spec = validate("exp_weibull", a=1.0, b=2.0, c=1.5)
    serial = sample(spec, 10001, seed=9)
    parallel = sample(spec, 10001, seed=9, workers=4)
    np.testing.assert_array_equal(serial.values, parallel.values)


def test_parallel_equals_serial_numeric_path():
    # every numeric-only reference set, at odd n that three workers split
    # unevenly: below one block, and across three blocks; at n = 3 each worker
    # inverts one point, in scalars, where serial sampling inverts all three
    # in arrays
    for family in ("xie_lai3", "additive_weibull", "nadarajah_kotz", "phani5"):
        for params in reference_params(family):
            spec = validate(family, **params)
            for n in (3, 501, 2 * sampling._BLOCK + 17):
                serial = sample(spec, n, seed=3)
                parallel = sample(spec, n, seed=3, workers=3)
                np.testing.assert_array_equal(serial.values, parallel.values,
                                              err_msg="%r n=%d" % (params, n))
                assert serial.method is SampleMethod.NUMERIC


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_evaluates_in_blocks(monkeypatch, workers):
    sizes = []

    def counting(spec, u):
        sizes.append(len(u))
        return quantile_values(spec, u)

    monkeypatch.setattr(sampling, "quantile_values", counting)
    n = 5 * sampling._BLOCK + 3
    sample(validate("weibull2", a=1.0, b=1.0), n, seed=1, workers=workers)
    assert sum(sizes) == n
    assert max(sizes) <= sampling._BLOCK
    assert len(sizes) == 6


def test_blocked_sample_equals_one_shot_quantiles():
    # every closed-form reference set, at an n that spans three uneven blocks
    n = 2 * sampling._BLOCK + 17
    u = counter_uniforms(13, 0, n)
    for family in (f for f in family_ids() if family_info(f).quantile is not None):
        for params in reference_params(family):
            spec = validate(family, **params)
            try:
                expect = quantile_values(spec, u)
            except LambertQError as exc:  # a blocked run must raise it too
                with pytest.raises(type(exc)):
                    sample(spec, n, seed=13)
                continue
            np.testing.assert_array_equal(sample(spec, n, seed=13).values, expect,
                                          err_msg="%s %r" % (family, params))


def test_auto_prefers_analytic():
    spec = validate("weibull2", a=1.0, b=1.0)
    assert sample(spec, 10, seed=1).method is SampleMethod.ANALYTIC
    xspec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
    assert sample(xspec, 10, seed=1).method is SampleMethod.NUMERIC


def test_method_accepts_strings():
    spec = validate("weibull2", a=1.0, b=1.0)
    b = sample(spec, 10, seed=1, method="numeric")
    assert b.method is SampleMethod.NUMERIC
    with pytest.raises(ValueError):
        sample(spec, 10, seed=1, method="guess")


def test_analytic_method_rejected_for_numeric_only_family():
    spec = validate("additive_weibull", a=1.0, b=2.0, c=1.0, d=0.5)
    with pytest.raises(NoAnalyticFormError):
        sample(spec, 10, seed=1, method=SampleMethod.ANALYTIC)


def test_analytic_and_numeric_agree_through_identical_uniforms():
    spec = validate("lai_weibull3", a=1.0, b=1.0, c=1.0)
    a = sample(spec, 2000, seed=7, method=SampleMethod.ANALYTIC)
    b = sample(spec, 2000, seed=7, method=SampleMethod.NUMERIC)
    assert np.abs(a.values - b.values).max() <= 1e-7


def test_sample_mean_of_unit_exponential():
    spec = validate("weibull2", a=1.0, b=1.0)
    batch = sample(spec, 100000, seed=7)
    assert abs(batch.values.mean() - 1.0) < 0.02


# One reference set per Lambert-W family (index into reference_params).
# inv_mod_weibull has SF ~ (a/t)^b, so none of its sets has a finite
# variance; its draws are compared through 1/X, whose SF is cdf(1/s).
LAMBERT_W_SETS = [
    ("lai_weibull3", 1),
    ("inv_mod_weibull", 1),
    ("gen_mod_weibull", 2),
    ("shifted_mod_weibull", 1),
    ("kum_mod_weibull", 2),
    ("mod_log_logistic", 1),
    ("gompertz_makeham", 2),
    ("mod_power_lomax", 2),
    ("mod_pareto4", 1),
    ("mod_lognormal", 2),
]


@pytest.mark.parametrize("family,index", LAMBERT_W_SETS)
def test_lambert_w_sample_mean_matches_integrated_survival(family, index):
    # independent evidence for the family, unlike a KS test of sample(spec)
    # against the same spec: E[X] = lo + integral of SF from lo, by the
    # conftest quadrature, which shares no code with the quantile formula
    spec = validate(family, **reference_params(family)[index])
    values = sample(spec, 100000, seed=11).values
    lo, hi = spec.support
    if family == "inv_mod_weibull":
        values = 1.0 / values
        lo, hi = 0.0, math.inf

        def sf(s):
            return cdf(spec, 1.0 / s) if s > 0.0 else 1.0
    else:
        def sf(t):
            return survival(spec, t)
    top = lo + 1.0
    while top < hi and sf(top) > 1e-17:
        top = lo + 2.0 * (top - lo)
    mean = lo + quad(sf, lo, min(top, hi), tol=1e-10)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean() - mean) <= 5.0 * se


def test_sample_requires_positive_n():
    spec = validate("weibull2", a=1.0, b=1.0)
    with pytest.raises(ValueError):
        sample(spec, 0, seed=1)


def test_sample_rejects_defective_spec():
    spec = validate("gompertz2", a=1.0, b=-1.0)
    with pytest.raises(DomainError):
        sample(spec, 10, seed=1)


def test_support_containment():
    cases = (
        validate("kies4", a=0.5, b=2.0, c=1.0, d=0.7),
        validate("gen_weibull", a=1.0, b=2.0, c=0.5),
        validate("trunc_log_weibull", a=0.0, b=1.0),
        validate("shifted_mod_weibull", a=1.0, b=1.0, c=1.0, d=2.0),
    )
    for spec in cases:
        batch = sample(spec, 5000, seed=11)
        lo, hi = spec.support
        assert batch.values.min() >= lo
        if math.isfinite(hi):
            assert batch.values.max() < hi


# ---------------------------------------------------------------------------
# goodness of fit

def test_ks_single_sample_at_median():
    spec = validate("weibull2", a=1.0, b=1.0)
    batch = SampleBatch(spec, np.array([math.log(2.0)]), 0, SampleMethod.ANALYTIC)
    assert ks_statistic(batch) == 0.5


def test_ks_self_fit_passes():
    spec = validate("weibull2", a=1.0, b=1.0)
    n = 100000
    for seed in (7, 42, 20250819):
        batch = sample(spec, n, seed=seed)
        d = ks_statistic(batch)
        assert d * math.sqrt(n) <= 1.95, seed


def test_ks_detects_mismatched_hypothesis():
    data = sample(validate("weibull2", a=1.0, b=1.0), 10000, seed=7)
    wrong = validate("weibull2", a=1.0, b=2.0)
    d = ks_statistic(data, spec=wrong)
    assert d > 0.05


def test_ks_between_zero_and_one():
    spec = validate("pham", a=2.0, b=1.0)
    batch = sample(spec, 1000, seed=5)
    assert 0.0 <= ks_statistic(batch) <= 1.0


# ---------------------------------------------------------------------------
# moments

def test_moments_trivial_cases():
    spec = validate("weibull2", a=1.0, b=1.0)
    b1 = SampleBatch(spec, np.array([1.0, 1.0, 1.0]), 0, SampleMethod.ANALYTIC)
    assert empirical_moments(b1) == (1.0, 0.0)
    b2 = SampleBatch(spec, np.array([0.0, 2.0]), 0, SampleMethod.ANALYTIC)
    assert empirical_moments(b2) == (1.0, 2.0)


def test_moments_rayleigh_mean():
    # weibull2(1, 2) has mean Gamma(1.5) = sqrt(pi)/2
    spec = validate("weibull2", a=1.0, b=2.0)
    batch = sample(spec, 100000, seed=7)
    mean, var = empirical_moments(batch)
    assert abs(mean - math.sqrt(math.pi) / 2.0) < 0.01
    assert var > 0.0


def test_moments_need_two_values():
    spec = validate("weibull2", a=1.0, b=1.0)
    batch = SampleBatch(spec, np.array([1.0]), 0, SampleMethod.ANALYTIC)
    with pytest.raises(ValueError):
        empirical_moments(batch)


# ---------------------------------------------------------------------------
# serialization

def test_csv_roundtrip():
    spec = validate("weibull2", a=1.0, b=1.0)
    batch = sample(spec, 5, seed=42)
    text = batch_to_csv(batch)
    lines = text.splitlines()
    assert lines[0] == "value"
    assert len(lines) == 6
    back = np.array([float(s) for s in lines[1:]])
    np.testing.assert_array_equal(back, batch.values)


def test_json_schema_and_roundtrip():
    spec = validate("lai_weibull3", a=1.0, b=0.5, c=2.0)
    batch = sample(spec, 4, seed=8)
    doc = json.loads(batch_to_json(batch))
    assert doc["family"] == "lai_weibull3"
    assert doc["params"] == {"a": 1.0, "b": 0.5, "c": 2.0}
    assert doc["seed"] == 8
    assert doc["n"] == 4
    assert doc["method"] == "Analytic"
    assert doc["algorithm_id"] == ALGORITHM_ID
    np.testing.assert_array_equal(np.array(doc["values"]), batch.values)


def test_serializers_match_the_generic_encoders():
    spec = validate("lai_weibull3", a=1.0, b=0.5, c=2.0)
    values = np.array([np.inf, np.nan, 5e-324, -0.0, 0.1, 1e300, -np.inf])
    for v in (values, values[:1], values[:0]):
        batch = SampleBatch(spec=spec, values=v, seed=8, method=SampleMethod.ANALYTIC)
        assert batch_to_csv(batch) == "\n".join(["value"] + [repr(float(x)) for x in v]) + "\n"
        assert batch_to_json(batch) == json.dumps({
            "family": "lai_weibull3",
            "params": {"a": 1.0, "b": 0.5, "c": 2.0},
            "seed": 8,
            "algorithm_id": ALGORITHM_ID,
            "method": "Analytic",
            "n": v.size,
            "values": [float(x) for x in v],
        }, indent=2)

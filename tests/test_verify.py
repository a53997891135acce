"""Tests for the printed-formula verification harness and errata report."""

import csv
import io
import json

import numpy as np
import pytest

from lambertq import (
    Verdict,
    default_grid,
    errata_report,
    family_ids,
    reference_specs,
    report_to_csv,
    report_to_json,
    validate,
    verify_family,
)

NO_CLOSED_FORM = {"additive_weibull", "nadarajah_kotz", "phani5", "xie_lai3"}
CORRECTED = {
    "exp_kum_weibull5",
    "ext_weibull",
    "flexible_weibull",
    "mod_lognormal",
    "mod_pareto4",
    "mod_weibull_ext",
}


@pytest.fixture(scope="module")
def report():
    return errata_report()


def entry_map(entries):
    return {e.family: e for e in entries}


# ---------------------------------------------------------------------------
# grid construction

def test_default_grid_shape():
    g = default_grid()
    assert len(g) == 99
    assert 0.0 < g.min() and g.max() < 1.0
    assert np.all(np.diff(g) > 0)


def test_grid_size_floor():
    with pytest.raises(ValueError):
        default_grid(98)


def test_verify_family_rejects_small_or_invalid_grid():
    spec = validate("weibull2", a=1.0, b=1.0)
    with pytest.raises(ValueError):
        verify_family(spec, grid=np.linspace(0.01, 0.99, 50))
    with pytest.raises(ValueError):
        errata_report(np.linspace(0.01, 0.99, 50))
    bad = np.concatenate((default_grid(), [1.0]))
    with pytest.raises(ValueError):
        verify_family(spec, grid=bad)


# ---------------------------------------------------------------------------
# single-family verdicts

def test_weibull2_verified_as_printed():
    entry = verify_family(validate("weibull2", a=1.0, b=1.0))
    assert entry.verdict is Verdict.VERIFIED_AS_PRINTED
    assert entry.max_roundtrip_error_printed <= 1e-8


def test_flexible_weibull_corrected():
    entry = verify_family(validate("flexible_weibull", a=1.0, b=1.0))
    assert entry.verdict is Verdict.CORRECTED_FORMULA
    assert entry.max_roundtrip_error_printed > 1e-8
    assert entry.note


def test_xie_lai3_no_closed_form():
    entry = verify_family(validate("xie_lai3", a=1.0, b=2.0, c=1.0))
    assert entry.verdict is Verdict.NO_CLOSED_FORM
    assert entry.max_roundtrip_error_printed is None
    assert entry.note


# ---------------------------------------------------------------------------
# full report

def test_report_covers_every_family_once(report):
    assert sorted(e.family for e in report) == sorted(family_ids())


def test_no_closed_form_set_is_exact(report):
    got = {e.family for e in report if e.verdict is Verdict.NO_CLOSED_FORM}
    assert got == NO_CLOSED_FORM


def test_corrected_set_is_exact(report):
    got = {e.family for e in report if e.verdict is Verdict.CORRECTED_FORMULA}
    assert got == CORRECTED


def test_corrected_entries_show_large_printed_error(report):
    for e in report:
        if e.verdict is Verdict.CORRECTED_FORMULA:
            assert e.max_roundtrip_error_printed > 1e-8, e.family
            assert e.note, e.family


def test_verified_entries_show_small_printed_error(report):
    for e in report:
        if e.verdict is Verdict.VERIFIED_AS_PRINTED:
            assert e.max_roundtrip_error_printed <= 1e-8, e.family


def test_corrected_families_fail_on_some_reference_set(report):
    # per-set measurement: each corrected family must show the failure on
    # at least one reference set (the report takes the worst over sets)
    for family in CORRECTED:
        verdicts = [verify_family(s).verdict for s in reference_specs(family)]
        assert Verdict.CORRECTED_FORMULA in verdicts, family


def test_parameter_coincidence_can_mask_a_wrong_formula():
    # mod_pareto4's catalogued form drops a b*c/a factor; at a=b=c=1 that
    # factor is 1, so this single set verifies -- the reason the report
    # aggregates worst-case over several reference sets
    masked = verify_family(validate("mod_pareto4", a=1.0, b=1.0, c=1.0, d=1.0, mu=0.0))
    assert masked.verdict is Verdict.VERIFIED_AS_PRINTED
    exposed = verify_family(validate("mod_pareto4", a=2.0, b=0.5, c=2.0, d=0.7, mu=0.5))
    assert exposed.verdict is Verdict.CORRECTED_FORMULA
    assert exposed.max_roundtrip_error_printed > 1e-8


def test_report_is_worst_case_over_reference_sets(report):
    by_family = entry_map(report)
    for family in family_ids():
        errors = [
            verify_family(s).max_roundtrip_error_printed
            for s in reference_specs(family)
        ]
        worst = None if family in NO_CLOSED_FORM else max(errors)
        assert by_family[family].max_roundtrip_error_printed == worst, family


# ---------------------------------------------------------------------------
# serialization

def test_json_schema(report):
    text = report_to_json(report)
    doc = json.loads(text)
    assert set(doc) == {"errata"}
    rows = doc["errata"]
    assert len(rows) == 28
    for row in rows:
        assert set(row) == {"family", "verdict", "max_roundtrip_error_printed", "note"}
    by_family = {r["family"]: r for r in rows}
    assert by_family["xie_lai3"]["verdict"] == "NoClosedForm"
    assert by_family["xie_lai3"]["max_roundtrip_error_printed"] is None
    assert by_family["weibull2"]["verdict"] == "VerifiedAsPrinted"
    assert by_family["mod_pareto4"]["verdict"] == "CorrectedFormula"


def test_csv_schema(report):
    text = report_to_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 28
    assert set(rows[0]) == {"family", "verdict", "max_roundtrip_error_printed", "note"}
    by_family = {r["family"]: r for r in rows}
    assert by_family["phani5"]["verdict"] == "NoClosedForm"
    assert by_family["phani5"]["max_roundtrip_error_printed"] == ""
    err = float(by_family["mod_weibull_ext"]["max_roundtrip_error_printed"])
    assert err > 1e-8

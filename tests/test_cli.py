"""Tests for the command-line front end (exit codes, output formats)."""

import io
import json
import subprocess
import sys

import pytest

from lambertq import BracketError, LambertQError
from lambertq import cli


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# scalar evaluation commands

def test_quantile_median_prints_exact_repr():
    code, out, err = run_cli(
        "quantile", "--family", "weibull2", "--param", "a=1", "--param", "b=1",
        "--u", "0.5",
    )
    assert code == 0
    assert out == "0.6931471805599453\n"
    assert err == ""


def test_quantile_numeric_fallback_for_no_closed_form():
    code, out, _ = run_cli(
        "quantile", "--family", "xie_lai3",
        "--param", "a=1", "--param", "b=2", "--param", "c=1",
        "--u", "0.25",
    )
    assert code == 0
    t = float(out)
    assert 0.0 < t < 1.0


def test_cdf_and_sf_are_complements():
    args = ("--family", "lai_weibull3", "--param", "a=1", "--param", "b=1",
            "--param", "c=1", "--t", "1")
    code_f, out_f, _ = run_cli("cdf", *args)
    code_s, out_s, _ = run_cli("sf", *args)
    assert code_f == 0 and code_s == 0
    assert float(out_f) == pytest.approx(1.0 - 0.06598803584531254, rel=1e-15)
    assert float(out_s) == pytest.approx(0.06598803584531254, rel=1e-15)


# ---------------------------------------------------------------------------
# sampling commands

def test_sample_csv_deterministic():
    argv = ("sample", "--family", "lai_weibull3", "--param", "a=1",
            "--param", "b=1", "--param", "c=1", "--n", "5", "--seed", "42",
            "--format", "csv")
    code1, out1, _ = run_cli(*argv)
    code2, out2, _ = run_cli(*argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "value"
    assert len(lines) == 6
    assert all(float(s) > 0 for s in lines[1:])


def test_sample_at_the_top_uniform():
    # this seed's first word maps to the largest uniform below 1
    code, out, err = run_cli(
        "sample", "--family", "weibull2", "--param", "a=1", "--param", "b=1",
        "--n", "1", "--seed", "3558559446808474027",
    )
    assert code == 0, err
    assert float(out.splitlines()[1]) > 36.0  # -ln(2**-53) = 36.7


def test_sample_json_schema():
    code, out, _ = run_cli(
        "sample", "--family", "xie_lai3", "--param", "a=1", "--param", "b=2",
        "--param", "c=1", "--n", "3", "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "xie_lai3"
    assert doc["method"] == "Numeric"
    assert doc["n"] == 3
    assert len(doc["values"]) == 3


def test_ks_command():
    code, out, _ = run_cli(
        "ks", "--family", "weibull2", "--param", "a=1", "--param", "b=2",
        "--n", "2000", "--seed", "7",
    )
    assert code == 0
    d = float(out)
    assert 0.0 < d < 0.05


# ---------------------------------------------------------------------------
# verification commands

def test_verify_single_family():
    code, out, _ = run_cli("verify", "--family", "flexible_weibull")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # one line per reference parameter set
    assert all("CorrectedFormula" in line for line in lines)


def test_verify_numeric_only_family_prints_every_reference_set():
    code, out, _ = run_cli("verify", "--family", "xie_lai3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all("NoClosedForm" in line for line in lines)


def test_verify_all_families():
    code, out, _ = run_cli("verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 28
    assert sum("NoClosedForm" in line for line in lines) == 4


def test_errata_json_contains_no_closed_form_verdict():
    code, out, _ = run_cli("errata", "--format", "json")
    assert code == 0
    rows = json.loads(out)["errata"]
    by_family = {r["family"]: r for r in rows}
    assert by_family["xie_lai3"]["verdict"] == "NoClosedForm"
    assert by_family["ext_weibull"]["verdict"] == "CorrectedFormula"


def test_errata_csv_header():
    code, out, _ = run_cli("errata", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "family,verdict,max_roundtrip_error_printed,note"
    assert len(out.strip().splitlines()) == 29


def test_list_families():
    code, out, _ = run_cli("list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 28
    assert any(line.startswith("weibull2") for line in lines)
    assert sum("numeric-only" in line for line in lines) == 4


# ---------------------------------------------------------------------------
# error handling

def test_exit_2_param_constraint_named():
    code, out, err = run_cli(
        "quantile", "--family", "pham", "--param", "a=1", "--param", "b=2",
        "--u", "0.5",
    )
    assert code == 2
    assert out == ""
    assert "exceed 1" in err


def test_exit_2_unknown_family():
    code, _, err = run_cli("cdf", "--family", "nope", "--param", "a=1", "--t", "1")
    assert code == 2
    assert "unknown family" in err


def test_exit_2_unknown_parameter_key():
    code, _, err = run_cli(
        "quantile", "--family", "weibull2", "--param", "a=1", "--param", "z=3",
        "--u", "0.5",
    )
    assert code == 2
    assert "unknown parameter(s) z" in err
    assert "missing parameter(s) b" in err


def test_exit_2_missing_parameter():
    code, _, err = run_cli(
        "quantile", "--family", "weibull2", "--param", "a=1", "--u", "0.5",
    )
    assert code == 2
    assert "b" in err


def test_exit_2_u_out_of_range():
    code, _, err = run_cli(
        "quantile", "--family", "weibull2", "--param", "a=1", "--param", "b=1",
        "--u", "1.5",
    )
    assert code == 2
    assert "(0, 1)" in err


def test_exit_2_bad_param_syntax():
    code, _, err = run_cli(
        "quantile", "--family", "weibull2", "--param", "a:1", "--param", "b=1",
        "--u", "0.5",
    )
    assert code == 2
    assert "key=value" in err


def test_exit_2_analytic_sampling_of_numeric_only_family():
    code, _, err = run_cli(
        "sample", "--family", "phani5", "--param", "a=0", "--param", "b=2",
        "--param", "c=1", "--param", "d=1", "--param", "e=1",
        "--n", "3", "--seed", "1", "--method", "analytic",
    )
    assert code == 2
    assert "no analytic quantile" in err


def test_exit_2_small_verify_grid():
    code, _, err = run_cli("verify", "--grid-size", "50")
    assert code == 2
    assert "99" in err


def test_usage_error_exits_2(capsys):
    assert cli.main(["quantile", "--family", "weibull2"]) == 2  # missing --u
    assert cli.main([]) == 2  # missing subcommand
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "quantile" in capsys.readouterr().out


def test_exit_3_bracket_failure(monkeypatch):
    def boom(spec, u, tol=1e-12):
        raise BracketError("no sign change within 1000 doublings")

    monkeypatch.setattr(cli, "numeric_quantile", boom)
    code, out, err = run_cli(
        "quantile", "--family", "xie_lai3", "--param", "a=1", "--param", "b=2",
        "--param", "c=1", "--u", "0.5",
    )
    assert code == 3
    assert out == ""
    assert "numeric failure" in err


def test_exit_3_residual_failure(monkeypatch):
    def boom(spec, u):
        raise LambertQError("numeric inversion reached residual 1e-3")

    monkeypatch.setattr(cli, "quantile", boom)
    code, _, err = run_cli(
        "quantile", "--family", "weibull2", "--param", "a=1", "--param", "b=1",
        "--u", "0.5",
    )
    assert code == 3
    assert "residual" in err


# ---------------------------------------------------------------------------
# module entry point

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "lambertq.cli", "quantile", "--family", "weibull2",
         "--param", "a=1", "--param", "b=1", "--u", "0.5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.6931471805599453\n"

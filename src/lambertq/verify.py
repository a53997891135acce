"""Machine verification of the catalogued quantile formulas.

For each family with a closed-form inverse, the harness evaluates the
formula exactly as catalogued on a probability grid and measures the
roundtrip error |F(Q_printed(u)) - u| against the family's own CDF.  A
formula whose worst error stays within 1e-8 is VerifiedAsPrinted; one
that fails is CorrectedFormula (the registry then carries a corrected
derivation, which is what ``quantile`` evaluates); families with no
closed form at all are NoClosedForm.

The measurement is the authority: verdicts come from the grid sweep, not
from how a family happens to be annotated.
"""

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .families import cdf, family_ids, family_info, validate
from .refsets import reference_params

__all__ = [
    "Verdict",
    "ErrataEntry",
    "default_grid",
    "verify_family",
    "errata_report",
    "report_to_json",
    "report_to_csv",
]

_PASS_TOL = 1e-8  # worst grid error a printed formula may show and still pass


class Verdict(Enum):
    VERIFIED_AS_PRINTED = "VerifiedAsPrinted"
    CORRECTED_FORMULA = "CorrectedFormula"
    NO_CLOSED_FORM = "NoClosedForm"


@dataclass(frozen=True)
class ErrataEntry:
    """Verdict for one family: how its catalogued quantile formula fared."""

    family: str
    verdict: Verdict
    max_roundtrip_error_printed: Optional[float]  # None when no formula exists
    note: str


def default_grid(size=99):
    """Evenly spaced probabilities 1/(size+1) ... size/(size+1)."""
    size = int(size)
    if size < 99:
        raise ValueError("verification grid must hold at least 99 points; got %r" % size)
    return np.arange(1, size + 1, dtype=float) / (size + 1)


def _printed_max_error(spec, grid):
    """Worst |F(Q_printed(u)) - u| over the grid; NaN evaluations count as inf.

    A printed evaluator may return several candidate branches (shape
    (k, n)); each point is scored by its best candidate, the charitable
    reading of an ambiguous formula.
    """
    fam = family_info(spec.family)
    printed = fam.printed_quantile if fam.printed_quantile is not None else fam.quantile
    with np.errstate(all="ignore"):
        t = np.atleast_2d(np.asarray(printed(grid, spec.params), dtype=float))
        res = np.abs(cdf(spec, t) - grid).min(axis=0)
    res = np.where(np.isfinite(res), res, np.inf)
    return float(res.max())


def verify_family(spec, grid=None):
    """Measure one parameter set's printed formula and return its ErrataEntry."""
    fam = family_info(spec.family)
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size < 99:
        raise ValueError(
            "verification grid must hold at least 99 points; got %d" % grid.size
        )
    if not (np.all(grid > 0.0) and np.all(grid < 1.0)):
        raise ValueError("verification grid must lie strictly inside (0, 1)")

    if fam.quantile is None:
        return ErrataEntry(spec.family, Verdict.NO_CLOSED_FORM, None, fam.note)

    max_err = _printed_max_error(spec, grid)
    if max_err <= _PASS_TOL:
        return ErrataEntry(
            spec.family,
            Verdict.VERIFIED_AS_PRINTED,
            max_err,
            fam.note or "printed closed form inverts the CDF on the verification grid",
        )
    return ErrataEntry(spec.family, Verdict.CORRECTED_FORMULA, max_err, fam.note)


def errata_report(grid=None):
    """One ErrataEntry per family, aggregated over its reference parameter sets.

    Each family's entry is its ``verify_family`` entry with the worst
    printed-formula error across all of its reference sets, so a formula
    that only fails on some parameter regimes is still flagged.
    """
    entries = []
    for name in family_ids():
        per_set = [verify_family(validate(name, **p), grid) for p in reference_params(name)]
        entries.append(max(per_set, key=lambda e: e.max_roundtrip_error_printed or 0.0))
    return entries


def _entry_dict(entry):
    return {
        "family": entry.family,
        "verdict": entry.verdict.value,
        "max_roundtrip_error_printed": entry.max_roundtrip_error_printed,
        "note": entry.note,
    }


def report_to_json(entries):
    """Serialize a report as JSON: {"errata": [entry, ...]}.

    Entries use keys family / verdict / max_roundtrip_error_printed /
    note; the error field is null for NoClosedForm families and may be
    Infinity (Python JSON extension) when a printed formula produced
    invalid values on part of the grid.
    """
    return json.dumps({"errata": [_entry_dict(e) for e in entries]}, indent=2)


def report_to_csv(entries):
    """Serialize a report as CSV with one row per family."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "verdict", "max_roundtrip_error_printed", "note"])
    for e in entries:
        err = "" if e.max_roundtrip_error_printed is None else repr(e.max_roundtrip_error_printed)
        writer.writerow([e.family, e.verdict.value, err, e.note])
    return buf.getvalue()

"""
Quantile functions and the formula-verification report
=======================================================

Each distribution family is registered with its cumulative hazard
H = -ln SF and, where one exists, a closed-form quantile.  Every closed form has been
machine-checked against the family's own CDF; the errata report records
which catalogued formulas survived and which needed correction.
"""

import numpy as np

from lambertq import (
    cdf,
    errata_report,
    family_ids,
    quantile,
    survival,
    validate,
    verify_family,
)

# ---------------------------------------------------------------------------
# 1. Validate parameters, then evaluate.  weibull2(a=1, b=1) is the unit
#    exponential, so the median is ln 2.

spec = validate("weibull2", a=1.0, b=1.0)
print("support:", spec.support)
print("SF(ln 2) =", survival(spec, np.log(2.0)))
res = quantile(spec, 0.5)
print("Q(0.5)   = %.17g  path=%s  residual=%.2e"
      % (res.t, res.path.value, res.roundtrip_residual))

# ---------------------------------------------------------------------------
# 2. Lambert-W families: the exponentially tilted Weibull has
#    SF = exp(-a t^b e^(ct)); its quantile inverts through W0.

lai = validate("lai_weibull3", a=1.0, b=1.0, c=1.0)
u = 1.0 - np.exp(-np.e)           # F(1) for these parameters
print("\ntilted Weibull: Q(%.12g) =" % u, quantile(lai, u).t)

# Every quantile reports |F(Q(u)) - u|, the roundtrip residual:
grid = np.linspace(0.01, 0.99, 99)
res = quantile(lai, grid)
print("worst roundtrip residual over the grid: %.3e"
      % float(np.max(res.roundtrip_residual)))

# ---------------------------------------------------------------------------
# 3. Parameter validation names the violated constraint.

try:
    validate("pham", a=1.0, b=2.0)
except Exception as exc:
    print("\nrejected:", exc)

try:
    validate("kies4", a=2.0, b=1.0, c=1.0, d=1.0)
except Exception as exc:
    print("rejected:", exc)

# ---------------------------------------------------------------------------
# 4. The verification harness evaluates each family's catalogued formula
#    as printed and measures its roundtrip error.  Some catalogued forms
#    are wrong; the library ships a corrected derivation and the report
#    says so.

entry = verify_family(validate("flexible_weibull", a=1.0, b=1.0))
print("\nflexible_weibull verdict:", entry.verdict.value)
print("printed-form max error:   ", entry.max_roundtrip_error_printed)
print("note:", entry.note)

# The corrected implementation still inverts the CDF exactly:
fw = validate("flexible_weibull", a=1.0, b=1.0)
res = quantile(fw, grid)
print("corrected-form max residual: %.3e" % float(np.max(res.roundtrip_residual)))
print("roundtrip F(Q(0.25)) =", cdf(fw, quantile(fw, 0.25).t))

# ---------------------------------------------------------------------------
# 5. The full report covers all 28 families.

report = errata_report()
counts = {}
for e in report:
    counts[e.verdict.value] = counts.get(e.verdict.value, 0) + 1
print("\nverdict counts over %d families:" % len(family_ids()), counts)
for e in report:
    if e.verdict.value != "VerifiedAsPrinted":
        print("  %-18s %-16s %s" % (e.family, e.verdict.value, e.note[:60]))

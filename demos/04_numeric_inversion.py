"""
The numeric quantile oracle
===========================

Four families have no workable closed-form inverse at all; for
everything else the numeric inverter serves as an independent oracle
that the analytic formulas are checked against.  It solves
ln H(t) = ln(-ln(1 - u)) for the cumulative hazard H = -ln SF, in the
coordinate log2(t - lo) where that equation is nearly linear.  ln H comes
from the family's own H: one pass of H over a ladder of doubling
distances from the support edge brackets every u, and Chandrupatla's
method (inverse quadratic interpolation, safeguarded by bisection) closes
each bracket.
"""

import numpy as np

from lambertq import numeric_quantile, quantile, survival, validate

# ---------------------------------------------------------------------------
# 1. A family with no closed form: additive competing risks,
#    SF = exp(-a t^b - c t^d).  With a=1, b=2, c=1, d=1/2 the median
#    solves t^2 + sqrt(t) = ln 2.

spec = validate("additive_weibull", a=1.0, b=2.0, c=1.0, d=0.5)
res = numeric_quantile(spec, 0.5, tol=1e-12)
print("median t = %.17g" % res.t)
print("check    : t^2 + sqrt(t) - ln 2 = %.2e"
      % (res.t**2 + np.sqrt(res.t) - np.log(2.0)))
print("path=%s residual=%.2e" % (res.path.value, res.roundtrip_residual))

# ---------------------------------------------------------------------------
# 2. Every numeric result is self-certifying: |F(t) - u| <= tol or it
#    raises rather than return a bad value.

grid = np.linspace(0.01, 0.99, 99)
res = numeric_quantile(spec, grid, tol=1e-12)
print("\nworst certified residual over 99 points: %.3e"
      % float(np.max(res.roundtrip_residual)))

# ---------------------------------------------------------------------------
# 3. Oracle duty: for families that do have closed forms, numeric and
#    analytic paths must land on the same quantiles.

gm = validate("gompertz_makeham", a=1.0, b=1.0, c=1.0)
t_analytic = quantile(gm, grid).t
t_numeric = numeric_quantile(gm, grid, tol=1e-12).t
print("\nanalytic vs numeric, worst gap: %.3e"
      % float(np.max(np.abs(t_analytic - t_numeric))))

# ---------------------------------------------------------------------------
# 4. Supports are respected.  This four-parameter family lives on
#    [a, b); quantiles approach b but stay inside.

k = validate("kies4", a=0.5, b=2.0, c=1.0, d=0.7)
for u in (0.001, 0.5, 0.999):
    print("kies4 Q(%.3f) = %.12g" % (u, numeric_quantile(k, u).t))
print("support:", k.support)

# ---------------------------------------------------------------------------
# 5. Defective distributions are surfaced, not silently mis-sampled.
#    Gompertz with b < 0 keeps survival mass exp(a/b) at infinity, so
#    quantiles only exist below u_max.

g = validate("gompertz2", a=1.0, b=-1.0)
print("\nu_max = %.12g; SF flattens at %.12g" % (g.u_max, survival(g, 1e9)))
print("Q(0.3) =", quantile(g, 0.3).t)
try:
    quantile(g, 0.9)
except Exception as exc:
    print("Q(0.9) rejected:", exc)

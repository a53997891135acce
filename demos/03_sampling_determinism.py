"""
Deterministic inverse-transform sampling
========================================

Uniform deviates come from a counter-based splitmix64 stream, so a
(seed, position) pair pins down every draw bit-exactly on any platform.
Applying a family's quantile function to those uniforms yields samples
from that family.
"""

import numpy as np

from lambertq import (
    SeededStream,
    empirical_moments,
    ks_statistic,
    sample,
    validate,
)

# ---------------------------------------------------------------------------
# 1. The raw uniform stream: same seed, same numbers, forever.

stream = SeededStream(seed=42)
print("first uniforms:", stream.uniforms(4))
print("stream position is now", stream.position)

# ---------------------------------------------------------------------------
# 2. Sampling a distribution: quantile(uniform) under the hood.

spec = validate("weibull2", a=1.0, b=2.0)   # Rayleigh-type, mean sqrt(pi)/2
batch = sample(spec, 100000, seed=7)
mean, var = empirical_moments(batch)
print("\nmean      = %.4f (expect %.4f)" % (mean, np.sqrt(np.pi) / 2.0))
print("variance  = %.4f (expect %.4f)" % (var, 1.0 - np.pi / 4.0))

# Re-running with the same seed reproduces the batch bit-for-bit:
again = sample(spec, 100000, seed=7)
print("bit-identical rerun:", bool(np.array_equal(batch.values, again.values)))

# ---------------------------------------------------------------------------
# 3. sample() draws in fixed blocks of at most 2**14 stream positions and
#    hands them to the workers; the stream is indexed by position, so any
#    block or worker split gives the same batch bit for bit.

parallel = sample(spec, 100000, seed=7, workers=4)
print("parallel == serial:  ", bool(np.array_equal(parallel.values, batch.values)))

# ---------------------------------------------------------------------------
# 4. Goodness of fit: the KS statistic against the sampled family is
#    small, and D * sqrt(n) <= 1.95 is the acceptance bar the test suite
#    holds every family to.

d = ks_statistic(batch)
print("\nKS D_n            = %.5f" % d)
print("D_n * sqrt(n)     = %.3f (bar: 1.95)" % (d * np.sqrt(batch.values.size)))

# Testing the same draws against the wrong hypothesis lights up:
wrong = validate("weibull2", a=1.0, b=1.0)
print("D_n vs wrong model= %.3f" % ks_statistic(batch, spec=wrong))

# ---------------------------------------------------------------------------
# 5. Families without a closed-form quantile sample through the numeric
#    inverter transparently.

xspec = validate("xie_lai3", a=1.0, b=2.0, c=1.0)
nbatch = sample(xspec, 1000, seed=11)
print("\nnumeric-path batch: method=%s  first values %s"
      % (nbatch.method.value, np.round(nbatch.values[:3], 6)))

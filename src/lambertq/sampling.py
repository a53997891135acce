"""Inverse-transform sampling on a counter-based deterministic stream.

Uniforms come from the splitmix64 output function applied to a pure
counter: out_i = mix64(seed + (i+1) * GOLDEN), so the i-th draw depends
only on (seed, i).  That makes streams bit-exact across platforms and
runs, lets position ranges be handed to parallel workers without any
shared state, and guarantees serial and parallel sampling produce the
identical batch.  Each 64-bit word maps to a double via its top 53 bits
as ((k >> 11) + 0.5) * 2**-53, which is never 0.  The one word with
k >> 11 = 2**53 - 1 rounds to exactly 1.0 there; it is clamped to
1 - 2**-53, the largest double below 1, so every uniform lies strictly
inside (0, 1).

Samples are quantiles of those uniforms: the analytic closed form where
one exists, or certified numeric CDF inversion otherwise.  A batch is
drawn in fixed blocks of at most 2**14 positions, so that every
temporary array stays small enough for the L2 cache.  Stream, formulas
and inverter all work point by point, so any split into blocks or
across workers gives the same batch bit for bit.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NoAnalyticFormError
from .families import cdf, family_info, quantile_values
from .invert import invert_cdf

__all__ = [
    "ALGORITHM_ID",
    "SeededStream",
    "SampleMethod",
    "SampleBatch",
    "sample",
    "ks_statistic",
    "empirical_moments",
    "batch_to_csv",
    "batch_to_json",
]

ALGORITHM_ID = "splitmix64-counter-v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = 1 << 64
_U_TOP = 1.0 - 2.0 ** -53  # largest double below 1
_BLOCK = 1 << 14  # draws per block: 128 KiB per temporary array, inside L2


def _mix64(z):
    """splitmix64 finalizer on a uint64 array, in place (wrapping arithmetic)."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def counter_words(seed, start, n):
    """Raw 64-bit stream words at absolute positions start .. start+n-1."""
    if n < 0:
        raise ValueError("counter_words: n must be nonnegative")
    seed = int(seed) % _U64
    start = int(start)
    if start < 0 or start + n > _U64 - 1:
        raise ValueError("counter_words: position range exceeds the counter space")
    z = np.arange(n, dtype=np.uint64)
    z += np.uint64(start + 1)
    z *= _GOLDEN
    z += np.uint64(seed)
    return _mix64(z)


def counter_uniforms(seed, start, n):
    """Uniforms in (0, 1) at absolute stream positions start .. start+n-1."""
    k = counter_words(seed, start, n)
    k >>= np.uint64(11)
    u = k.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return np.minimum(u, _U_TOP, out=u)


@dataclass
class SeededStream:
    """A resumable uniform stream: (seed, position) fully determine the future.

    position counts draws already consumed; uniforms(n) returns the next
    n values and advances. Two streams with equal seed and position are
    bit-identical forever, on any platform.
    """

    seed: int
    position: int = 0
    algorithm_id: str = ALGORITHM_ID

    def __post_init__(self):
        self.seed = int(self.seed) % _U64
        if self.position < 0:
            raise ValueError("SeededStream: position must be nonnegative")

    def uniforms(self, n):
        u = counter_uniforms(self.seed, self.position, int(n))
        self.position += int(n)
        return u


class SampleMethod(Enum):
    ANALYTIC = "Analytic"
    NUMERIC = "Numeric"
    AUTO = "Auto"


def _resolve_method(method):
    if isinstance(method, SampleMethod):
        return method
    try:
        return SampleMethod(str(method).capitalize())
    except ValueError:
        raise ValueError(
            "sample: method must be one of Analytic, Numeric, Auto; got %r" % method
        ) from None


@dataclass(frozen=True)
class SampleBatch:
    """n inverse-transform draws plus everything needed to reproduce them."""

    spec: object
    values: np.ndarray
    seed: int
    method: SampleMethod
    algorithm_id: str = ALGORITHM_ID


def _quantile_chunk(spec, u, method):
    if method is SampleMethod.ANALYTIC:
        return quantile_values(spec, u)
    return invert_cdf(spec, u, tol=1e-12)


def sample(spec, n, seed, method=SampleMethod.AUTO, workers=1):
    """Draw n inverse-transform samples of spec on the (seed)-keyed stream.

    method Auto picks the analytic quantile when the family has one and
    numeric inversion otherwise; requesting Analytic for a family without
    a closed form raises NoAnalyticFormError.  The counter range [0, n) is
    cut into max(workers, ceil(n / 2**14)) contiguous blocks, run in turn,
    or on `workers` threads when workers > 1; because the stream is
    counter-based the result is bit-identical for any split.
    """
    n = int(n)
    if n < 1:
        raise ValueError("sample: n must be >= 1; got %r" % n)
    method = _resolve_method(method)
    analytic_ok = family_info(spec.family).quantile is not None
    if method is SampleMethod.AUTO:
        method = SampleMethod.ANALYTIC if analytic_ok else SampleMethod.NUMERIC
    if method is SampleMethod.ANALYTIC and not analytic_ok:
        raise NoAnalyticFormError(
            "%s has no analytic quantile; sample with method=Numeric or Auto"
            % spec.family
        )
    if spec.u_max < 1.0:
        raise DomainError(
            "%s: defective for these parameters (survival mass %r at infinity); "
            "sampling is not defined" % (spec.family, 1.0 - spec.u_max)
        )

    workers = max(1, int(workers))
    k = max(workers, -(-n // _BLOCK))
    bounds = [(i * n) // k for i in range(k + 1)]
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def draw(span):
        lo, hi = span
        return _quantile_chunk(spec, counter_uniforms(seed, lo, hi - lo), method)

    if workers == 1:
        parts = list(map(draw, spans))
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            parts = list(pool.map(draw, spans))
    values = np.concatenate(parts)

    return SampleBatch(
        spec=spec,
        values=np.asarray(values, dtype=float),
        seed=int(seed) % _U64,
        method=method,
    )


def ks_statistic(batch, spec=None):
    """Kolmogorov-Smirnov D_n of a batch against a hypothesized spec.

    Uses the sorted-sample form D_n = max(D+, D-) with
    D+ = max_i(i/n - F(x_(i))) and D- = max_i(F(x_(i)) - (i-1)/n).
    spec defaults to the batch's own spec (a self-test of fit).
    """
    if spec is None:
        spec = batch.spec
    x = np.sort(np.asarray(batch.values, dtype=float))
    n = x.size
    if n < 1:
        raise ValueError("ks_statistic: batch must hold at least one value")
    f = cdf(spec, x)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    return max(d_plus, d_minus, 0.0)


def empirical_moments(batch):
    """(sample mean, unbiased sample variance); needs at least two values."""
    x = np.asarray(batch.values, dtype=float)
    if x.size < 2:
        raise ValueError("empirical_moments: need at least 2 values; got %d" % x.size)
    return float(np.mean(x)), float(np.var(x, ddof=1))


def batch_to_csv(batch):
    """One 'value' header line then one row per draw, full double precision."""
    values = np.asarray(batch.values, dtype=float).tolist()
    return "\n".join(["value", *map(repr, values)]) + "\n"


def batch_to_json(batch):
    """JSON document echoing family, params, seed, method, and draw values.

    Schema: {family, params, seed, algorithm_id, method, n, values};
    values carry full shortest-roundtrip precision.  The text is that of
    json.dumps(..., indent=2); the values list is encoded in one call of
    the C encoder, its separator carrying the newline and indent.
    """
    values = np.asarray(batch.values, dtype=float).tolist()
    head = json.dumps({
        "family": batch.spec.family,
        "params": batch.spec.params,
        "seed": batch.seed,
        "algorithm_id": batch.algorithm_id,
        "method": batch.method.value,
        "n": len(values),
    }, indent=2)
    body = json.dumps(values, separators=(",\n    ", ": "))
    if values:
        body = "[\n    " + body[1:-1] + "\n  ]"
    return head[:-2] + ',\n  "values": ' + body + "\n}"

"""Shared grids, self-contained numeric oracles and the Hypothesis home
fixture for the test suite.

The oracles here deliberately share no code with the library: root
finding is plain sign-based bisection, integration is recursive adaptive
Simpson with a Richardson correction, and the uniform-stream reference
is a literal big-integer transcription of the published splitmix64
recipe.  Every "expected" constant frozen into the tests was produced by
these routines and can be re-derived by calling them again.
"""

import math

import numpy as np
import pytest
from hypothesis import configuration

MASK64 = (1 << 64) - 1
GAMMA64 = 0x9E3779B97F4A7C15


@pytest.fixture(scope="module")
def hypothesis_home(tmp_path_factory):
    # with database=None Hypothesis still caches the constants it reads from
    # source files under its home directory; keep that out of the checkout
    configuration.set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))
    yield
    configuration.set_hypothesis_home_dir(None)


# ---------------------------------------------------------------------------
# root-finding oracle: 200-iteration sign-based bisection

def bisect(f, lo, hi, iters=200):
    """Root of f on [lo, hi] by pure bisection; requires a sign change."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0) ^ (fhi < 0.0):
        raise AssertionError("oracle bracket must straddle the root")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) ^ (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# integration oracle: recursive adaptive Simpson with Richardson correction

def _simpson(a, b, fa, fm, fb):
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, m, fa, flm, fm)
    right = _simpson(m, b, fm, frm, fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _adaptive(f, a, m, fa, flm, fm, left, half, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def quad(f, a, b, tol=1e-14):
    """Integral of f over [a, b] by adaptive Simpson (depth-limited)."""
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, 60)


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_cdf_oracle(x):
    """P(Z <= x) by quadrature; the mass 40 units beyond x is < 1e-320."""
    if x <= 0.0:
        return quad(normal_pdf, x - 40.0, x)
    return 1.0 - quad(normal_pdf, x, x + 40.0)


# ---------------------------------------------------------------------------
# uniform-stream oracle: sequential splitmix64 on Python big integers

def splitmix64_reference(seed, n):
    """First n splitmix64 outputs for the given seed, as Python ints."""
    words = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + GAMMA64) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z = z ^ (z >> 31)
        words.append(z)
    return words


def uniform_reference(seed, n):
    """Uniforms implied by the reference words: ((w >> 11) + 0.5) * 2**-53,
    clamped to 1 - 2**-53 where that rounds to 1."""
    return [min(((w >> 11) + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53)
            for w in splitmix64_reference(seed, n)]


# ---------------------------------------------------------------------------
# probability grids

def acceptance_grid():
    """201 points: 0.001, then 0.005 ... 0.995 in steps of 0.005, then 0.999."""
    inner = np.arange(1, 200, dtype=np.float64) / 200.0
    return np.concatenate(([0.001], inner, [0.999]))


def geometric_tail_grid(tail=1e-12, points=60):
    """Probabilities running geometrically from ``tail`` up to 1/2, plus mirrors."""
    lower = np.geomspace(tail, 0.5, points)
    return np.unique(np.concatenate((lower, 1.0 - lower)))

"""Property tests drawn from each family's parameter box, ``Family.rules``.

The strategy reads the registry's own rules, so these tests hold no second
copy of them: a parameter under a ``Bound`` is drawn log-uniformly above its
bound (with both signs for != 0), a parameter that no ``Bound`` names is drawn
uniformly, and the ``Cross`` rules are left for ``validate`` to apply.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambertq import ParamError, families, family_ids, family_info, invert, validate
from lambertq.families import Bound, Cross

DECADES = st.floats(-8.0, 8.0)
FREE = st.floats(-100.0, 100.0)

DRAW = {
    ">0": DECADES.map(lambda x: 10.0 ** x),
    ">=0": DECADES.map(lambda x: 10.0 ** x),
    ">1": DECADES.map(lambda x: 1.0 + 10.0 ** x),
    "!=0": st.tuples(st.sampled_from((-1.0, 1.0)), DECADES).map(lambda s: s[0] * 10.0 ** s[1]),
}
# the first value outside each kind of bound
ON_BOUND = {">0": 0.0, ">=0": float(np.nextafter(0.0, -np.inf)), ">1": 1.0, "!=0": 0.0}


pytestmark = pytest.mark.usefixtures("hypothesis_home")


def box(fam):
    kinds = {r.param: r.kind for r in fam.rules if isinstance(r, Bound)}
    draws = st.fixed_dictionaries({n: DRAW[kinds[n]] if n in kinds else FREE for n in fam.params})
    free = [n for n in fam.params if n not in kinds]
    cross = [r for r in fam.rules if isinstance(r, Cross)]
    if not (free and cross):
        return draws
    # uniform draws rarely meet a Cross rule on free parameters (0 <= a < b:
    # 1 in 8), so three draws in four try the sorted magnitudes instead
    return st.tuples(draws, st.integers(0, 3)).map(
        lambda d: _sorted_magnitudes(d[0], free, cross) if d[1] else d[0])


def _sorted_magnitudes(p, free, cross):
    """p with its free parameters replaced by their sorted magnitudes, where
    that meets every Cross rule; p itself where it does not."""
    q = {**p, **dict(zip(free, sorted(abs(p[n]) for n in free)))}
    return p if any(r.problem(q) for r in cross) else q


def outcome(family, params):
    try:
        validate(family, **params)
    except ParamError as e:
        return str(e)
    return None


@pytest.mark.parametrize("family", family_ids())
def test_validate_keeps_to_the_box(family):
    fam = family_info(family)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(box(fam))
    def check(p):
        # inside every Bound: a spec, or the first broken Cross rule, or the
        # endpoint gate
        broken = [m for m in (r.problem(p) for r in fam.rules if isinstance(r, Cross)) if m]
        message = outcome(family, p)
        if broken:
            assert message == "%s: %s" % (family, broken[0])
        elif message is not None:
            assert re.match(r"%s: survival (at the lower endpoint|is )" % family, message), message
        else:
            assert validate(family, **p).params == p
        # one parameter moved onto its bound is named: it is the first rule
        # broken, as a Cross checked before a Bound reads other parameters
        bounds = [r for r in fam.rules if isinstance(r, Bound)] if not broken else []
        for rule in bounds:
            message = outcome(family, {**p, rule.param: ON_BOUND[rule.kind]})
            assert message is not None and message.startswith(
                "%s: %s must " % (family, rule.param)), message
        # and so is one that is not finite
        for name in fam.params:
            for v in (math.nan, math.inf, -math.inf):
                assert outcome(family, {**p, name: v}) == (
                    "%s: %s must be finite (got %r)" % (family, name, v))

    check()


def test_readme_family_table_states_each_box():
    rows = {}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 6 and cells[0].strip("`") in family_ids():
            rows[cells[0].strip("`")] = cells[3]
    assert set(rows) == set(family_ids())
    for family, stated in rows.items():
        assert stated == ", ".join(
            "%s %s %s" % (r.param, r.kind[:-1], r.kind[-1]) if isinstance(r, Bound) else r.text
            for r in family_info(family).rules), family


# FOUND: the hazards of these two families read NaN where a power underflows
# to 0 while another factor overflows (0 * inf); in-box sets where they do
_NAN_HAZARD = {
    "nadarajah_kotz": dict(a=0.17192595598455432, b=308.45603655488037, c=59365.00160673064,
                           d=1.0),
    "phani5": dict(a=1.7699402583053872e-144, b=17.701277220332983, c=0.0003719049432789274,
                   d=50679.03273199326, e=4923222.976496468),
}
# in-box sets whose H once read NaN or dropped on the rungs, kept as examples
_RUNG_EXAMPLES = {
    **_NAN_HAZARD,
    "gen_weibull": dict(a=7.803473219652836, b=0.015779071711450654, c=1.195016355342264),
    "lai_weibull3": dict(a=101502.50671177823, b=101502.50671177823, c=101502.50671177823),
    "inv_mod_weibull": dict(a=8.762360698807577e-05, b=5656.332209588623, c=6.1219652440271135),
    "gen_mod_weibull": dict(a=1.0000230261160268, b=153439.0746428058, c=153439.0746428058, d=1.0),
    "shifted_mod_weibull": dict(a=0.17192595598455432, b=308.45603655488037, c=59365.00160673064,
                                d=1.0),
    "kum_mod_weibull": dict(a=79.43282347242814, b=0.008219366238985693, c=1.3198343915355595,
                            d=6498051.022029966, mu=13517.236595306551),
}


@pytest.mark.parametrize("family", [
    pytest.param(f, marks=pytest.mark.xfail(strict=True, reason="FOUND: NaN hazard"))
    if f in _NAN_HAZARD else f for f in family_ids()])
def test_hazard_on_the_ladder_rungs_is_a_nondecreasing_nonnegative_number(family):
    # ROADMAP item 8's second property, which needs no oracle: on every rung of
    # the numeric inverter's ladder, H is not NaN, not below 0 and never drops
    fam = family_info(family)

    def body(p):
        try:
            spec = validate(family, **p)
        except ParamError:
            return
        with np.errstate(all="ignore"):
            h = families._hazard(spec, invert._rungs(*spec.support))
        assert not np.isnan(h).any() and h.min() >= 0.0, p
        assert np.all(h[1:] >= h[:-1]), (p, np.flatnonzero(h[1:] < h[:-1])[:5])

    check = given(box(fam))(body)
    if family in _RUNG_EXAMPLES:
        check = example(_RUNG_EXAMPLES[family])(check)
    settings(derandomize=True, database=None, max_examples=40, deadline=None)(check)()

"""The call chain the benchmark's tracer wraps from outside the library.

``perfbench/tracing.py`` replaces module attributes (``invert.invert_cdf``,
``invert.cdf``, ...) with span-recording wrappers.  A name that no longer
resolves breaks the traced run, and a call that bypasses the module
attribute leaves no span, so a per-layer metric divides by zero and the
run's JSON line carries a bare NaN.
"""

import importlib.util
from pathlib import Path

import numpy as np

import lambertq
import lambertq.cli  # noqa: F401  (cli_targets wraps its attributes)
from lambertq import WEvaluation, families, invert, sampling, validate

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = _tracing_module()
    for module, attr, *_ in tracing.targets(lambertq) + tracing.cli_targets(lambertq):
        assert callable(getattr(module, attr, None)), (module.__name__, attr)


def test_numeric_quantile_goes_through_invert_cdf(monkeypatch):
    # the scalar route's invert.self_us_per_call is read from invert_cdf spans;
    # invert_cdf certifies from the H its solver read and calls no cdf, so the
    # tracer's invert.cdf_* metrics read 0.0, a finite number
    calls = {"invert_cdf": 0, "cdf_inside_invert_cdf": 0}
    depth = []
    invert_cdf, cdf = invert.invert_cdf, invert.cdf

    def counting_invert_cdf(*args, **kwargs):
        calls["invert_cdf"] += 1
        depth.append(1)
        try:
            return invert_cdf(*args, **kwargs)
        finally:
            depth.pop()

    def counting_cdf(*args, **kwargs):
        calls["cdf_inside_invert_cdf"] += bool(depth)
        return cdf(*args, **kwargs)

    monkeypatch.setattr(invert, "invert_cdf", counting_invert_cdf)
    monkeypatch.setattr(invert, "cdf", counting_cdf)
    lambertq.numeric_quantile(validate("xie_lai3", a=1.0, b=2.0, c=1.0), 0.3)
    assert calls == {"invert_cdf": 1, "cdf_inside_invert_cdf": 0}, calls


def _count_sampler_calls(monkeypatch):
    calls = {}
    for name in ("counter_uniforms", "quantile_values", "invert_cdf"):
        def counting(*args, _name=name, _fn=getattr(sampling, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sampling, name, counting)
    return calls


def test_sample_of_a_closed_form_goes_through_the_stream_and_the_formula(monkeypatch):
    calls = _count_sampler_calls(monkeypatch)
    lambertq.sample(validate("weibull2", a=1.0, b=2.0), 100, seed=1)
    assert calls == {"counter_uniforms": 1, "quantile_values": 1}


def test_sample_of_a_numeric_set_goes_through_invert_cdf(monkeypatch):
    calls = _count_sampler_calls(monkeypatch)
    lambertq.sample(validate("xie_lai3", a=1.0, b=2.0, c=1.0), 100, seed=1)
    assert calls == {"counter_uniforms": 1, "invert_cdf": 1}


def test_sample_of_a_w0_set_calls_w_principal_once_per_block(monkeypatch):
    # the tracer's W note reads np.sum(out.iterations) and np.max(out.residual)
    seen = []
    w_principal = families.w_principal

    def recording(x):
        out = w_principal(x)
        seen.append((np.shape(x), out))
        return out

    monkeypatch.setattr(families, "w_principal", recording)
    n = 2 * sampling._BLOCK + 17
    lambertq.sample(validate("lai_weibull3", a=1.0, b=1.0, c=1.0), n, seed=1)
    assert len(seen) == 3 and sum(shape[0] for shape, _ in seen) == n
    for shape, out in seen:
        assert len(shape) == 1 and shape[0] <= sampling._BLOCK
        assert isinstance(out, WEvaluation)
        assert out.iterations.shape == out.residual.shape == shape


def test_sample_of_gompertz_makeham_goes_through_w_principal_from_log(monkeypatch):
    calls = {"w_principal_from_log": 0, "w_principal": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(families, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(families, name, counting)
    lambertq.sample(validate("gompertz_makeham", a=1.0, b=1.0, c=1.0), 100, seed=1)
    assert calls == {"w_principal_from_log": 1, "w_principal": 0}

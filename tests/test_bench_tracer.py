"""The benchmark's span tracer patches library functions and three methods by
name.  A method moved off its class, or a wrapper left behind, fails here as
well as in the benchmark."""

import importlib

from bench import tracer


def _patched_methods():
    out = []
    for short, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"{tracer.PACKAGE}.{short}"), cls_name)
        out.append(cls.__dict__[meth])
    return out


def test_tracer_leaves_no_wrapper_installed():
    before = _patched_methods()
    assert tracer.installed_wrappers() == []
    with tracer.Tracer():
        installed = tracer.installed_wrappers()
        assert any(name.endswith("chebyshev.least_squares") for name in installed)
        for short, cls_name, meth in tracer.METHODS:
            assert f"{tracer.PACKAGE}.{short}.{cls_name}.{meth}" in installed
    assert tracer.installed_wrappers() == []
    assert all(a is b for a, b in zip(_patched_methods(), before))

"""A traced benchmark job runs cleanly against the package as it is.

`bench/tracing.py` wraps its targets by name, a function in every torelli
namespace that binds it and a class on its constructor.  A target that
changes kind (a class that becomes a function, say) must still be
wrapped, counted and restored, so fixture jobs, an audit and one round
of the invariants suite run here under the tracer, loaded by path and
unchanged.
"""

from __future__ import annotations

import importlib

from test_bench_targets import load_tracing
from torelli.checks import run_invariant_checks
from torelli.cli import build_config, run_job


def namespace_snapshot(modules) -> dict:
    """Every binding of the package's namespaces and of the classes defined in them."""
    out = {}
    for ns in modules:
        for attr, value in vars(ns).items():
            out[ns.__name__, attr] = value
            if isinstance(value, type) and value.__module__ == ns.__name__:
                out.update(((ns.__name__, attr, k), v) for k, v in vars(value).items())
    return out


def test_traced_fixture_job_and_invariants():
    tracing = load_tracing()
    modules = [importlib.import_module("torelli"),
               *(importlib.import_module(f"torelli.{m}") for m in tracing.MODULES)]
    before = namespace_snapshot(modules)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert namespace_snapshot(modules) != before
        report = run_job(build_config("act", fixture="paper-figure-1"))
        assert report.to_text()
        verdicts = run_invariant_checks(3, 0, 1)
        assert all(v.passed for v in verdicts), [v.name for v in verdicts if not v.passed]
        for command, kwargs in (("forms", {"fixture": "paper-figure-1"}),
                                ("audit", {"genus": 3})):
            report = run_job(build_config(command, **kwargs))
            assert all(v.passed for v in report.verdicts), command
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["exterior.Vector.calls"] > 0
    assert metrics["forms.Transvection.apply.calls"] > 0
    assert metrics["forms.phi.calls"] > 0  # the forms fixture's form, run by name
    assert metrics["linalg.independent_row_indices.calls"] > 0
    assert {m: metrics[f"{m}.errors"] for m in tracing.MODULES} == dict.fromkeys(
        tracing.MODULES, 0)
    after = namespace_snapshot(modules)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []

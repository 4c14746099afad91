"""Every function the benchmark's tracer wraps must exist in the package.

`bench/tracing.py` names its targets as (module, name) pairs.  A target
that was deleted or renamed would break the traced benchmark run, so it
fails here first.  The tracer is loaded by path and left unchanged.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module, name, _ in tracing.TARGETS:
        owner = importlib.import_module(f"torelli.{module}")
        head, _, method = name.partition(".")
        obj = getattr(owner, head, None)
        assert obj is not None, f"torelli.{module} has no {head!r}"
        if isinstance(obj, type):
            # the tracer replaces the method (or __init__) in the class's own dict
            attr = method or "__init__"
            assert attr in vars(obj), f"{module}.{name}: {attr!r} not defined on {head}"
        else:
            assert not method and callable(obj), f"{module}.{name} is not a function"


def test_install_and_uninstall_restore_the_package():
    tracing = load_tracing()
    exterior = importlib.import_module("torelli.exterior")
    before = (exterior.wedge, exterior.Multivector.__init__)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert exterior.wedge is not before[0]
        space = exterior.SymplecticSpace(3)
        exterior.wedge(space.a(1), space.b(2))
        assert tracer.metrics()["exterior.wedge.calls"] == 1
    finally:
        tracer.uninstall()
    assert (exterior.wedge, exterior.Multivector.__init__) == before

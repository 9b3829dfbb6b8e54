"""The benchmark tracer's hook targets exist in the engine.

``bench/tracer.py`` wraps engine functions by name and records a name it
cannot find in ``missing``, where that layer's metrics read zero.  This
pins the names, so a rename fails here rather than zeroing a counter.
"""

import importlib.util
from pathlib import Path

import esparql  # noqa: F401  (the tracer hooks only modules already imported)
from esparql import randgen  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_finds_every_hook_target():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        # FourGraph.key is gone from the model, so its metrics read zero
        assert tracer.missing == ["model.FourGraph.key"]
    finally:
        tracer.uninstall()

"""The benchmark's layer tracer names only functions that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_layer_names_resolve():
    """``--trace 1`` wraps every ``LAYERS`` name; a missing one breaks it."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, names in tracer.LAYERS.items():
        module = importlib.import_module("lzero." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), f"lzero.{mod}.{name}"

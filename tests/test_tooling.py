"""The benchmark's layer tracer names only functions that exist, and
still sees the face and site layers."""

import importlib
import importlib.util
from pathlib import Path

from lzero import fixtures

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layer_names_resolve():
    """``--trace 1`` wraps every ``LAYERS`` name; a missing one breaks it."""
    tracer = _load_tracer()
    for mod, names in tracer.LAYERS.items():
        module = importlib.import_module("lzero." + mod)
        for name in names:
            assert callable(getattr(module, name, None)), f"lzero.{mod}.{name}"


def test_tracer_counts_faces_and_site_listing():
    """Site listing reaches ``diagram.faces`` through a binding the
    tracer wraps, so the per-layer trace still counts both."""
    moves = importlib.import_module("lzero.moves")
    d = fixtures.load("borromean")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for kind in ("R2+", "R2-"):
            moves.enumerate_sites(d, kind)
    finally:
        tracer.uninstall()
    counts = tracer.summary()
    assert counts["moves.enumerate_sites_calls"] == 2
    assert counts["diagram.faces_calls"] > 0
    assert counts["moves.sites_found"] == sum(
        len(moves.enumerate_sites(d, kind)) for kind in ("R2+", "R2-"))


def test_tracer_reaches_the_battery_walk_and_expansions():
    """``classify`` reaches ``milnor.wirtinger`` once and
    ``milnor.magnus_expand`` once per pair through bindings the tracer
    wraps, so ``--trace 1`` attributes the walk and the expansions."""
    classify = importlib.import_module("lzero.classify")
    d = fixtures.load("borromean")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        classify.classify(d)
    finally:
        tracer.uninstall()
    counts = tracer.summary()
    assert counts["classify.classify_calls"] == 1
    assert counts["milnor.wirtinger_calls"] == 1
    assert counts["milnor.magnus_expand_calls"] == d.m * (d.m - 1) // 2
    assert counts["milnor.linking_number_calls"] == 0

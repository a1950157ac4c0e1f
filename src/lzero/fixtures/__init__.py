"""Bundled diagram files for tests, examples and demos."""

from __future__ import annotations

from importlib import resources

from ..diagram import LinkDiagram, parse_diagram

NAMES = ("unknot", "trefoil", "fig8", "hopf+", "whitehead", "borromean")


def fixture_text(name: str) -> str:
    """Return the raw diagram file shipped as ``<name>.lz``."""
    ref = resources.files(__package__).joinpath(f"{name}.lz")
    return ref.read_text(encoding="utf-8")


def load(name: str) -> LinkDiagram:
    """Parse and return the bundled diagram called *name*."""
    return parse_diagram(fixture_text(name))

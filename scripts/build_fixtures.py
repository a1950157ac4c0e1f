#!/usr/bin/env python3
"""Regenerate the bundled diagram files under src/lzero/fixtures/.

Each fixture is the closure of a small braid word, chosen so that the
battery of invariants comes out at the reference values asserted by the
test suite (see tests/test_acceptance.py).  Run from the repository
root:

    python3 scripts/build_fixtures.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lzero.construct import braid_closure
from lzero.diagram import LinkDiagram, render_diagram

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "lzero" / "fixtures"

HEADERS = {
    "unknot": "crossing-free single circle",
    "trefoil": "right-handed trefoil, closure of the 2-strand braid s1^3",
    "fig8": "figure-eight knot, closure of s1 s2^-1 s1 s2^-1",
    "hopf+": "positive Hopf link, closure of s1^2",
    "whitehead": "Whitehead link with positive clasp,"
                 " closure of s1^-1 s2 s1^-1 s2 s1^-1",
    "borromean": "Borromean rings, closure of (s1 s2^-1)^3",
}

WORDS = {
    "trefoil": ((1, 1, 1), 2),
    "fig8": ((1, -2, 1, -2), 3),
    "hopf+": ((1, 1), 2),
    "whitehead": ((-1, 2, -1, 2, -1), 3),
    "borromean": ((1, -2, 1, -2, 1, -2), 3),
}


def fixture_diagrams() -> dict[str, LinkDiagram]:
    diagrams = {"unknot": LinkDiagram(1, (), {}, (1,))}
    for name, (word, strands) in WORDS.items():
        diagrams[name] = braid_closure(word, strands)
    return diagrams


def fixture_text(name: str, d: LinkDiagram) -> str:
    """The file text of one fixture: a header comment, then the code."""
    return f"# {name}: {HEADERS[name]}\n" + render_diagram(d)


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, d in fixture_diagrams().items():
        path = OUT / f"{name}.lz"
        path.write_text(fixture_text(name, d), encoding="utf-8")
        print(f"wrote {path} ({len(d.crossings)} crossings, {d.m} components)")


if __name__ == "__main__":
    main()

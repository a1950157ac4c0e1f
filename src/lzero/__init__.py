"""Diagram-level invariants and low-order filtration classes of links.

The package computes, from a combinatorial link diagram, the battery of
invariants (pairwise linking numbers, Arf invariants per component,
triple linking numbers, pair self-intersection parities) that decides
membership at the bottom stage of the solvable filtration, together
with the resulting finite classification, representative diagram
construction, Conway polynomials, and diagram moves.
"""

from .classify import (SolvableReport, ZeroSolveClass, class_add, class_json,
                       class_neg, class_order, classify, equivalent,
                       identity_class, is_zero_solvable, parse_class,
                       render_class, representative)
from .construct import braid_closure, build_from_gadgets
from .conway import ConwayPolynomial, conway_polynomial
from .diagram import (Crossing, LinkDiagram, check_valid, disjoint_union,
                      mirror, parse_diagram, render_diagram, sublink,
                      validate)
from .errors import (DiagramParseError, DiagramStructureError,
                     ExpansionError, InvariantUndefinedError, LZeroError,
                     MovePatternError, NotClassifiableError,
                     ResourceLimitError)
from .invariants import (InvariantTuple, arf, invariant_tuple,
                         invariants_json, render_invariants, sato_levine)
from .milnor import (WirtingerPresentation, linking_number,
                     longitude_series, magnus_expand, triple_linking,
                     wirtinger)
from .moves import (KINDS, MoveSite, apply_move, enumerate_sites, parse_site,
                    render_site)

__version__ = "0.1.0"

__all__ = [
    "Crossing", "LinkDiagram", "parse_diagram", "render_diagram",
    "validate", "check_valid", "sublink", "disjoint_union", "mirror",
    "LZeroError", "DiagramParseError", "DiagramStructureError",
    "MovePatternError", "InvariantUndefinedError", "NotClassifiableError",
    "ExpansionError", "ResourceLimitError",
    "MoveSite", "KINDS", "apply_move", "enumerate_sites", "parse_site",
    "render_site",
    "ConwayPolynomial", "conway_polynomial",
    "WirtingerPresentation", "wirtinger", "magnus_expand",
    "longitude_series", "linking_number", "triple_linking",
    "InvariantTuple", "arf", "sato_levine", "invariant_tuple",
    "render_invariants", "invariants_json",
    "ZeroSolveClass", "identity_class", "class_add", "class_neg",
    "class_order", "classify", "equivalent", "SolvableReport",
    "is_zero_solvable", "representative", "render_class", "parse_class",
    "class_json",
    "braid_closure", "build_from_gadgets",
    "__version__",
]

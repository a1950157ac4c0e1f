"""Classification of links up to the coarsest surgery-theoretic
equivalence detected by the low-degree battery.

For an m-component link with vanishing pairwise linking numbers the
complete set of invariants is

* ``a`` — the Arf invariant of each component (m bits),
* ``b`` — the triple linking number of each component triple, lex
  ordered (integers),
* ``c`` — the parity of the two-component degree-three Conway
  coefficient for each pair, lex ordered (bits),

and two links are equivalent exactly when the tuples agree: equality
of ``classify`` results, which ``lzero equiv`` compares.  The tuples
form an abelian group under component-wise addition (bits mod 2,
triples over the integers), realized geometrically by stacking; the
identity is the unlink class, and a link is trivial in this sense —
equivalently, its components cobound class-2 gropes, equivalently it
bounds an order-2 Whitney tower — iff its tuple is zero.

``classify`` and ``is_zero_solvable`` read the tuple from one
computation of the invariant battery (:mod:`lzero.invariants`), which
runs no expansion when some linking number is nonzero; both name the
first such pair in lex order.

``representative`` builds a canonical diagram in a given class: an
unlink with trefoil summands, clasped pairs and one gadget per nonzero
triple.  It refuses, before building anything, a class whose
representative would have more than ``MAX_REP_CROSSINGS`` crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .construct import build_from_gadgets, stack_crossings
from .diagram import LinkDiagram
from .errors import (DiagramParseError, NotClassifiableError,
                     ResourceLimitError)
from .invariants import component_pairs, component_triples, invariant_tuple

__all__ = [
    "ZeroSolveClass",
    "identity_class",
    "class_add",
    "class_neg",
    "classify",
    "SolvableReport",
    "is_zero_solvable",
    "representative",
    "MAX_REP_CROSSINGS",
    "class_gadgets",
    "render_class",
    "parse_class",
    "class_json",
]


@dataclass(frozen=True)
class ZeroSolveClass:
    """Group element (a; b; c) for m components.

    ``a`` has one bit per component, ``b`` one integer per lex-ordered
    component triple, ``c`` one bit per lex-ordered pair.
    """

    m: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("component count must be positive")
        if len(self.a) != self.m:
            raise ValueError(f"a needs {self.m} entries, got {len(self.a)}")
        n3 = comb(self.m, 3)
        if len(self.b) != n3:
            raise ValueError(f"b needs {n3} entries, got {len(self.b)}")
        n2 = comb(self.m, 2)
        if len(self.c) != n2:
            raise ValueError(f"c needs {n2} entries, got {len(self.c)}")
        if any(x not in (0, 1) for x in self.a):
            raise ValueError("a entries must be 0 or 1")
        if any(x not in (0, 1) for x in self.c):
            raise ValueError("c entries must be 0 or 1")
        if any(not isinstance(x, int) for x in self.b):
            raise ValueError("b entries must be integers")


def identity_class(m: int) -> ZeroSolveClass:
    return ZeroSolveClass(m, (0,) * m, (0,) * comb(m, 3), (0,) * comb(m, 2))


def class_add(g: ZeroSolveClass, h: ZeroSolveClass) -> ZeroSolveClass:
    if g.m != h.m:
        raise ValueError("cannot add classes with different component counts")
    return ZeroSolveClass(
        g.m,
        tuple((x + y) % 2 for x, y in zip(g.a, h.a)),
        tuple(x + y for x, y in zip(g.b, h.b)),
        tuple((x + y) % 2 for x, y in zip(g.c, h.c)))


def class_neg(g: ZeroSolveClass) -> ZeroSolveClass:
    return ZeroSolveClass(g.m, g.a, tuple(-x for x in g.b), g.c)


# ---------------------------------------------------------------------------
# diagrams -> classes


def classify(d: LinkDiagram) -> ZeroSolveClass:
    """Class of the link; requires all pairwise linking numbers zero."""
    t = invariant_tuple(d)
    for (i, j), v in t.linking.items():
        if v != 0:
            raise NotClassifiableError(
                f"not classifiable: lk(K_{i},K_{j})={v}",
                pair=(i, j), linking=v)
    return ZeroSolveClass(d.m, t.arf, tuple(t.triple.values()),
                          tuple(v % 2 for v in t.sato_levine.values()))


@dataclass(frozen=True)
class SolvableReport:
    """Three equivalent triviality readings plus the first obstruction."""

    solvable: bool
    grope_class_2: bool
    whitney_tower_order_2: bool
    obstruction: str | None


def is_zero_solvable(d: LinkDiagram) -> SolvableReport:
    """Trivial-class test with the first obstruction in scan order
    (linking, then Arf, then triples, then pair parities)."""
    t = invariant_tuple(d)
    found = [f"lk(K_{i},K_{j})={v}" for (i, j), v in t.linking.items() if v]
    found += [f"Arf(K_{c})=1" for c, v in enumerate(t.arf, start=1) if v]
    found += [f"mubar({i},{j},{k})={v}"
              for (i, j, k), v in (t.triple or {}).items() if v]
    found += [f"mubar({i},{i},{j},{j})={v} (odd)"
              for (i, j), v in (t.sato_levine or {}).items() if v % 2]
    obstruction = found[0] if found else None
    ok = obstruction is None
    return SolvableReport(ok, ok, ok, obstruction)


# ---------------------------------------------------------------------------
# classes -> diagrams


# The most crossings ``representative`` builds: at the budget ``lzero
# rep`` writes 2.4 MB in about 0.4 seconds and 60 MB.  Every m = 8 class
# with |b| <= 5548 fits: the largest, every bit set and b = -5548 on all
# 56 triples, has 49,886.  At m = 3 every |b| <= 17,363,886 fits.
MAX_REP_CROSSINGS = 50_000


def class_gadgets(g: ZeroSolveClass) -> list:
    """Gadget list whose serial composition realizes ``g``: a trefoil
    per set Arf bit, one gadget per nonzero triple, a clasp per set
    parity bit."""
    triples, pairs = component_triples(g.m), component_pairs(g.m)
    return ([("TREFOIL", (c,)) for c, bit in enumerate(g.a, start=1) if bit]
            + [("BORROMEAN", t, v) for t, v in zip(triples, g.b) if v]
            + [("WHITEHEAD", p) for p, bit in zip(pairs, g.c) if bit])


def representative(g: ZeroSolveClass) -> LinkDiagram:
    """Canonical diagram in class ``g``: an unlink with the gadgets of
    :func:`class_gadgets`.  Refuses a class whose diagram would have
    more than ``MAX_REP_CROSSINGS`` crossings."""
    gadgets = class_gadgets(g)
    n = stack_crossings(g.m, gadgets)
    if n > MAX_REP_CROSSINGS:
        raise ResourceLimitError(
            f"the representative of this class would have {n} crossings, "
            f"over the budget of {MAX_REP_CROSSINGS}")
    return build_from_gadgets(g.m, gadgets)


# ---------------------------------------------------------------------------
# text and JSON forms


def render_class(g: ZeroSolveClass) -> str:
    a = ",".join(str(x) for x in g.a)
    b = ",".join("0" if x == 0 else f"{x:+d}" for x in g.b)
    c = ",".join(str(x) for x in g.c)
    return f"m={g.m}; a={a}; b={b}; c={c}"


def parse_class(text: str) -> ZeroSolveClass:
    """Inverse of :func:`render_class`."""
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq or key not in ("m", "a", "b", "c") or key in fields:
            raise DiagramParseError(f"bad class field {part!r}")
        fields[key] = val.strip()
    missing = [k for k in ("m", "a", "b", "c") if k not in fields]
    if missing:
        raise DiagramParseError(f"class string missing {', '.join(missing)}")

    def ints(s):
        if not s:
            return ()
        try:
            return tuple(int(x) for x in s.split(","))
        except ValueError:
            raise DiagramParseError(f"bad integer list {s!r}") from None

    try:
        m = int(fields["m"])
    except ValueError:
        raise DiagramParseError(f"bad component count {fields['m']!r}") from None
    try:
        return ZeroSolveClass(m, ints(fields["a"]), ints(fields["b"]),
                              ints(fields["c"]))
    except ValueError as exc:
        raise DiagramParseError(str(exc)) from None


def class_json(g: ZeroSolveClass) -> dict:
    return {
        "m": g.m,
        "a": list(g.a),
        "b": {f"({i},{j},{k})": v
              for (i, j, k), v in zip(component_triples(g.m), g.b)},
        "c": {f"({i},{j})": v
              for (i, j), v in zip(component_pairs(g.m), g.c)},
    }

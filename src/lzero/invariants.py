"""The invariant battery of a link diagram.

Four layers, in order of the information they carry:

* pairwise linking numbers, all from one scan over the crossings;
* the Arf invariant of each component knot, read off as the degree-two
  Conway coefficient of the component alone, mod 2;
* triple linking numbers for every component triple, all read from one
  degree-two expansion of the whole link, defined only when all
  pairwise linking numbers vanish;
* the self-pairing invariant of every two-component sublink with zero
  linking: the degree-three Conway coefficient of that sublink.

``invariant_tuple`` computes the whole battery once; ``classify`` and
``is_zero_solvable`` read from the same computation.  The last two
layers are ``None`` whenever some pairwise linking number is nonzero,
since they are undefined there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .conway import conway_polynomial
from .diagram import LinkDiagram, sublink
from .errors import InvariantUndefinedError
from .milnor import linking_number, linking_numbers, triple_linkings

__all__ = [
    "arf",
    "sato_levine",
    "InvariantTuple",
    "invariant_tuple",
    "render_invariants",
    "invariants_json",
]


def component_pairs(m: int):
    return list(itertools.combinations(range(1, m + 1), 2))


def component_triples(m: int):
    return list(itertools.combinations(range(1, m + 1), 3))


def arf(d: LinkDiagram, comp: int) -> int:
    """Arf invariant (0 or 1) of the knot formed by one component."""
    knot = sublink(d, [comp])
    return conway_polynomial(knot).coefficient(2) % 2


def sato_levine(d: LinkDiagram, i: int, j: int) -> int:
    """Degree-three Conway coefficient of the (i, j) sublink.

    Requires lk(i, j) = 0; otherwise the quantity is not an invariant
    of the sublink's concordance class and
    :class:`InvariantUndefinedError` is raised.
    """
    if i == j:
        raise ValueError("needs two distinct components")
    lk = linking_number(d, i, j)
    if lk != 0:
        raise InvariantUndefinedError(
            f"undefined for lk(K_{i},K_{j})={lk}", pair=(i, j), linking=lk)
    return _pair_coefficient(d, i, j)


def _pair_coefficient(d: LinkDiagram, i: int, j: int) -> int:
    return conway_polynomial(sublink(d, [i, j])).coefficient(3)


@dataclass
class InvariantTuple:
    """The full battery; ``triple`` and ``sato_levine`` are None when
    some pairwise linking number is nonzero."""

    m: int
    linking: dict[tuple[int, int], int]
    arf: tuple[int, ...]
    triple: dict[tuple[int, int, int], int] | None
    sato_levine: dict[tuple[int, int], int] | None


def invariant_tuple(d: LinkDiagram) -> InvariantTuple:
    return battery(d, dict(linking_numbers(d)))


def battery(d: LinkDiagram, linking) -> InvariantTuple:
    """The battery, given every pairwise linking number of ``d``."""
    arfs = tuple(arf(d, c) for c in range(1, d.m + 1))
    if any(v != 0 for v in linking.values()):
        return InvariantTuple(d.m, linking, arfs, None, None)
    triple = triple_linkings(d)
    sato = {(i, j): _pair_coefficient(d, i, j)
            for i, j in component_pairs(d.m)}
    return InvariantTuple(d.m, linking, arfs, triple, sato)


def render_invariants(t: InvariantTuple) -> str:
    lines = [f"m: {t.m}"]
    for (i, j), v in sorted(t.linking.items()):
        lines.append(f"lk({i},{j}): {v}")
    for c, v in enumerate(t.arf, start=1):
        lines.append(f"arf({c}): {v}")
    if t.triple is not None:
        for (i, j, k), v in sorted(t.triple.items()):
            lines.append(f"mubar({i},{j},{k}): {v}")
    if t.sato_levine is not None:
        for (i, j), v in sorted(t.sato_levine.items()):
            lines.append(f"sl({i},{j}): {v}")
    return "\n".join(lines) + "\n"


def invariants_json(t: InvariantTuple) -> dict:
    return {
        "m": t.m,
        "linking": {f"({i},{j})": v for (i, j), v in sorted(t.linking.items())},
        "arf": list(t.arf),
        "triple": None if t.triple is None else
            {f"({i},{j},{k})": v for (i, j, k), v in sorted(t.triple.items())},
        "sato_levine": None if t.sato_levine is None else
            {f"({i},{j})": v for (i, j), v in sorted(t.sato_levine.items())},
    }

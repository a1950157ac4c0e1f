"""The invariant battery of a link diagram.

Four layers, in order of the information they carry:

* pairwise linking numbers, all from the signed pair totals that the
  walk building the presentation also gives;
* the Arf invariant of each component knot: its degree-two Conway
  coefficient mod 2, read as a Gauss-diagram count on the component's
  Gauss word, which the same walk gives;
* triple linking numbers for every component triple, defined only when
  all pairwise linking numbers vanish: mubar(ijk) for every k > j is
  read from the two-letter, degree-three expansion of the pair (i, j)
  that the next layer runs anyway;
* the self-pairing invariant of every two-component sublink with zero
  linking: the degree-three Conway coefficient of that sublink, read as
  -mubar(iijj) from the same expansion of the whole link's presentation.

No layer cuts out a sublink or runs the skein engine.
``invariant_tuple`` computes the whole battery once, from one walk of
the diagram; ``classify`` and ``is_zero_solvable`` read from the same
computation.  The last two layers are ``None`` whenever some pairwise
linking number is nonzero, since they are undefined there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import LinkDiagram
from .errors import InvariantUndefinedError
from .milnor import _linking, longitude_series, magnus_expand, wirtinger

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


def _gauss_arf(word) -> int:
    """Arf invariant of a component from its Gauss word (see ``arf``):
    each term e_a e_b is +-1, so the signs never change the parity."""
    pos = {passage: p for p, passage in enumerate(word)}
    a2 = 0
    for (a, level), ua in pos.items():
        if level == "under":
            oa = pos[a, "over"]
            for b, lv in word[ua + 1:oa]:
                if lv == "over" and pos[b, "under"] > oa:
                    a2 += 1
    return a2 % 2


def arf(d: LinkDiagram, comp: int) -> int:
    """Arf invariant (0 or 1) of the knot formed by one component.

    In the component's Gauss word, which the presentation's walk reads
    from its lowest arc, each self-crossing x is passed once under (at
    position u_x) and once over (o_x); the
    degree-two Conway coefficient is the sum of e_a e_b over ordered
    pairs with u_a < o_b < o_a < u_b (Polyak-Viro), and the Arf
    invariant is its parity.  A free loop gives 0.
    """
    if not 1 <= comp <= d.m:
        raise ValueError(f"component {comp} out of range 1..{d.m}")
    return _gauss_arf(wirtinger(d).gauss[comp])


def sato_levine(d: LinkDiagram, i: int, j: int) -> int:
    """Degree-three Conway coefficient of the (i, j) sublink.

    Requires lk(i, j) = 0; otherwise the quantity is not an invariant
    of the sublink's concordance class and
    :class:`InvariantUndefinedError` is raised.
    """
    if i == j:
        raise ValueError("needs two distinct components")
    pres = wirtinger(d)
    lk = _linking(pres, i, j)
    if lk != 0:
        raise InvariantUndefinedError(
            f"undefined for lk(K_{i},K_{j})={lk}", pair=(i, j), linking=lk)
    return -longitude_series(pres, magnus_expand(pres, i, j), j)[5]


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
    """The whole battery, from one presentation of ``d``; ``linking``
    lists its pairs in lex order."""
    pres, m = wirtinger(d), d.m
    linking = {pair: total // 2 for pair, total in pres.totals.items()}
    arfs = tuple(_gauss_arf(pres.gauss[c]) for c in range(1, m + 1))
    if any(v != 0 for v in linking.values()):
        return InvariantTuple(m, linking, arfs, None, None)
    triple, sato = {}, {}
    for i, j in component_pairs(m):
        series = magnus_expand(pres, i, j)
        sato[i, j] = -longitude_series(pres, series, j)[5]
        for k in range(j + 1, m + 1):
            triple[i, j, k] = longitude_series(pres, series, k)[4]
    return InvariantTuple(m, linking, arfs, triple, sato)


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

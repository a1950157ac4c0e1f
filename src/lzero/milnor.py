"""Low-degree longitude invariants from the diagram's strand presentation.

The presentation has one generator per overpass (a maximal run of arcs
joined by passing over crossings) and one relation per crossing: the
underpass generator leaving a crossing is the one entering it
conjugated by the overpass generator, with exponent given by the
crossing sign.

Every invariant here is a coefficient of a longitude in one algebra:
power series in two non-commuting variables ``h_i, h_j`` (for a chosen
pair of components i, j), truncated to the words ``()``, ``i``, ``j``,
``ii``, ``ij`` and ``iij``.  That set is closed under taking factors,
so truncating to it is a ring map, and so is setting ``h_l = 0`` for
every other component l: a generator of such a component becomes 1,
exactly as if the component were deleted, and no sublink is cut out.

``magnus_expand`` settles the generators of components i and j.  The
base overpass of each component (the one holding its lowest arc id) is
pinned to the exact series ``1 + h_c``.  The relations go in walk order
twice: the first pass conjugates by the meridians and is exact through
degree two, the second conjugates by the first pass's values and is
exact through degree three.  The closing (pinned) relations then hold
whenever the diagram is planar with lk(i, j) = 0, and are checked.

Walking once around a component from its base arc, with overpass
letters ``a_1 .. a_n`` met at its underpasses, carries the base
generator ``x`` to ``(a_n .. a_1) x (a_n .. a_1)^-1``.  The longitude,
which commutes with the base meridian, is therefore the product of the
letters in reverse walk order, corrected by the component's meridian
to the power of minus its self-writhe.  With pairwise linking numbers
zero, in the expansion of the pair (i, j):

* the coefficient of ``h_j`` in the longitude of i is lk(i, j);
* the coefficient of ``h_i h_j`` in the longitude of any k is the
  triple linking number mubar(ijk) (Milnor), alternating under
  permutations;
* the coefficient of ``h_i h_i h_j`` in the longitude of j is
  mubar(iijj), which is minus the degree-three Conway coefficient of
  the (i, j) sublink (Cochran).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import LinkDiagram, component_cycles, consumer_map
from .errors import (DiagramStructureError, ExpansionError,
                     InvariantUndefinedError)

__all__ = [
    "WirtingerPresentation",
    "wirtinger",
    "magnus_expand",
    "longitude_series",
    "linking_number",
    "triple_linking",
]


# ---------------------------------------------------------------------------
# two-letter series to degree three: 6-tuples of coefficients on the
# words (), i, j, ii, ij, iij.  Every series here has constant 1.


def _mul2(x, y):
    e, i, j, ii, ij, iij = x
    f, k, l, kk, kl, kkl = y
    return (e * f, e * k + i * f, e * l + j * f, e * kk + i * k + ii * f,
            e * kl + i * l + ij * f, e * kkl + i * kl + ii * l + iij * f)


def _inv2(x):
    _, i, j, ii, ij, iij = x
    return (1, -i, -j, i * i - ii, i * j - ij,
            i * ij + ii * j - i * i * j - iij)


def _conj2(x, o, sign):
    """o^sign x o^-sign; ``o`` None stands for 1."""
    if o is None:
        return x
    a, b = (o, _inv2(o)) if sign > 0 else (_inv2(o), o)
    return _mul2(_mul2(a, x), b)


# ---------------------------------------------------------------------------
# the presentation


@dataclass(frozen=True)
class WirtingerPresentation:
    """Overpass generators, crossing relations and longitude data.

    Generators are named by their class root (the smallest arc id in
    the overpass).  ``relations`` lists, in walk order, tuples
    ``(target, source, over, sign)``: target = over^sign source
    over^-sign.  ``letters[comp]`` is the sequence of (overpass, sign)
    met at the component's underpasses, again in walk order.
    """

    m: int
    arc_class: dict[int, int]
    class_comp: dict[int, int]
    base_class: dict[int, int]
    relations: tuple[tuple[int, int, int, int], ...]
    letters: dict[int, tuple[tuple[int, int], ...]]
    writhe: dict[int, int]

    def generators(self) -> list[int]:
        return sorted(set(self.arc_class.values()))


def wirtinger(d: LinkDiagram) -> WirtingerPresentation:
    parent: dict[int, int] = {a: a for a in d.arc_components}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cr in d.crossings:
        ra, rb = find(cr.over_in), find(cr.over_out)
        if ra != rb:
            # Keep the smaller arc id as the class name.
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    arc_class = {a: find(a) for a in d.arc_components}
    class_comp = {r: d.arc_components[r] for r in set(arc_class.values())}

    cons = consumer_map(d)
    base_class: dict[int, int] = {}
    relations: list[tuple[int, int, int, int]] = []
    letters: dict[int, list[tuple[int, int]]] = {c: [] for c in range(1, d.m + 1)}
    writhe = {c: d.self_writhe(c) for c in range(1, d.m + 1)}

    for cyc in component_cycles(d):
        comp = d.arc_components[cyc[0]]
        base_class[comp] = arc_class[cyc[0]]
        for arc in cyc:
            idx, level = cons[arc]
            if level != "under":
                continue
            cr = d.crossings[idx]
            over = arc_class[cr.over_in]
            relations.append((arc_class[cr.under_out], arc_class[arc],
                              over, cr.sign))
            letters[comp].append((over, cr.sign))

    return WirtingerPresentation(
        d.m, arc_class, class_comp, base_class, tuple(relations),
        {c: tuple(v) for c, v in letters.items()}, writhe)


def magnus_expand(pres: WirtingerPresentation, i: int, j: int,
                  require_exact: bool = True) -> dict[int, tuple]:
    """Series in ``h_i, h_j`` of every generator of components i and j,
    from two walk-order passes; see the module docstring.

    With ``require_exact`` the closing (pinned) relations are checked
    at degree three, and a defect raises :class:`ExpansionError`; a
    planar diagram with lk(i, j) = 0 has none.
    """
    unit = {i: (1, 1, 0, 0, 0, 0), j: (1, 0, 1, 0, 0, 0)}
    meridians = {g: unit[c] for g, c in pres.class_comp.items() if c in unit}
    rels = [r for r in pres.relations if r[0] in meridians]
    pinned = set(pres.base_class.values())
    series = meridians
    for final in (False, True):
        prev, series = series, dict(meridians)
        for tgt, src, over, sign in rels:
            value = _conj2(series[src], prev.get(over), sign)
            if tgt not in pinned:
                series[tgt] = value
            elif final and require_exact and value != series[tgt]:
                raise ExpansionError(
                    f"components {i} and {j}: relations are not exactly "
                    "satisfiable at degree three; not a planar diagram")
    return series


def longitude_series(pres: WirtingerPresentation, series: dict[int, tuple],
                     comp: int) -> tuple:
    """Zero-framed longitude of ``comp`` in the two-letter algebra of
    ``series``: its letters in reverse walk order, where letters of
    components outside the pair count as 1, times the meridian of
    ``comp`` to the power of minus its self-writhe."""
    w = pres.writhe.get(comp, 0)
    base = series.get(pres.base_class.get(comp))
    if base is None:  # comp is outside the pair: its meridian is 1
        out = (1, 0, 0, 0, 0, 0)
    elif base[1]:  # (1 + h_i)^-w
        out = (1, -w, 0, w * (w + 1) // 2, 0, 0)
    else:  # (1 + h_j)^-w, truncated
        out = (1, 0, -w, 0, 0, 0)
    for over, sign in pres.letters.get(comp, ()):
        o = series.get(over)
        if o is not None:
            out = _mul2(o if sign > 0 else _inv2(o), out)
    return out


# ---------------------------------------------------------------------------
# the invariants


def _pair_totals(d: LinkDiagram) -> dict[tuple[int, int], int]:
    """Signed crossing count of every component pair i < j, in lex
    order, from one scan over the crossings."""
    totals = {p: 0 for p in itertools.combinations(range(1, d.m + 1), 2)}
    comp = d.arc_components
    for cr in d.crossings:
        a, b = comp[cr.under_in], comp[cr.over_in]
        if a != b:
            totals[min(a, b), max(a, b)] += cr.sign
    return totals


def _half(i: int, j: int, total: int) -> int:
    if total % 2:
        raise DiagramStructureError([
            f"components {i} and {j} cross an odd signed total of {total}; "
            "the code does not describe a planar diagram"])
    return total // 2


def linking_numbers(d: LinkDiagram):
    """Yield ``((i, j), lk)`` for every pair i < j in lex order, from
    one scan over the crossings.  An odd signed total raises
    :class:`DiagramStructureError` only once its pair is reached."""
    for (i, j), total in _pair_totals(d).items():
        yield (i, j), _half(i, j, total)


def linking_number(d: LinkDiagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j."""
    if i == j:
        raise ValueError("linking number needs two distinct components")
    for c in (i, j):
        if not 1 <= c <= d.m:
            raise ValueError(f"component {c} out of range 1..{d.m}")
    return _half(i, j, _pair_totals(d)[min(i, j), max(i, j)])


def _permutation_sign(seq) -> int:
    sign = 1
    seq = list(seq)
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def triple_linking(d: LinkDiagram, i: int, j: int, k: int) -> int:
    """Triple linking number of components (i, j, k).

    Defined only when the three pairwise linking numbers vanish;
    otherwise :class:`InvariantUndefinedError` is raised naming the
    first offending pair.  Alternating under permutations of (i, j, k).
    """
    if len({i, j, k}) != 3:
        raise ValueError("triple linking needs three distinct components")
    a, b, c = ordered = sorted((i, j, k))
    bad = [x for x in ordered if not 1 <= x <= d.m]
    if bad:
        raise ValueError(f"components out of range 1..{d.m}: {bad}")
    totals = _pair_totals(d)
    pairs = ((a, b), (a, c), (b, c))
    for p, q in pairs:
        lk = _half(p, q, totals[p, q])
        if lk != 0:
            raise InvariantUndefinedError(
                f"triple linking undefined: lk(K_{p},K_{q})={lk}",
                pair=(p, q), linking=lk)
    pres = wirtinger(d)
    # The value needs only (a, b), but each pair's closing check covers
    # relations the others do not, and a non-planar code must not get a
    # value.
    series = [magnus_expand(pres, p, q) for p, q in pairs]
    mu = longitude_series(pres, series[0], c)[4]
    return _permutation_sign((i, j, k)) * mu

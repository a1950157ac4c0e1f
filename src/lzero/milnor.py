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

Every generator is a conjugate of its component's meridian, ``1 + h_i``
or ``1 + h_j``.  Conjugation preserves the degree-one part, and it
preserves the word ``ii``: in ``w h_i w^-1`` that coefficient is
``w_i - w_i = 0``.  So, on the words in the order above, a generator of
i is ``(1, 1, 0, 0, u, v)`` and one of j is ``(1, 0, 1, 0, u, v)``, and
the two integers (u, v) are all there is to find.  A relation
``x -> o' x o'^-1`` with ``o' = o^sign`` changes them by

    u += o'_i x_j - x_i o'_j
    v += o'_i u + o'_ii x_j - x_i o'_ij        (u before the step)

where ``o^-1 = (1, -o_i, -o_j, o_i, -u_o, o_i u_o - v_o)``.  These are
the coefficients of the full product, so nothing is dropped that the
truncation keeps.

``magnus_expand`` settles the generators of components i and j.  The
base overpass of each component (the one holding its lowest arc id) is
pinned to its meridian, (u, v) = (0, 0).  The relations go in walk
order twice: the first pass conjugates by the meridians and is exact
through degree two, the second conjugates by the first pass's values
and is exact through degree three.  Only relations whose overpass lies
on i or j change a value, so each pass steps through those alone, and
a generator's value is read by bisection at its segment, the number of
underpasses between its component's base and it.  The closing (pinned)
relations then hold whenever the diagram is planar with lk(i, j) = 0,
and are checked.

Walking once around a component from its base arc, with overpass
letters ``a_1 .. a_n`` met at its underpasses, carries the base
generator ``x`` to ``(a_n .. a_1) x (a_n .. a_1)^-1``.  The longitude,
which commutes with the base meridian, is therefore the product of the
letters in reverse walk order, corrected by the component's meridian
to the power of minus its self-writhe: six running integers, each
letter multiplied in on the left.  With pairwise linking numbers zero,
in the expansion of the pair (i, j):

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
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field

from .diagram import LinkDiagram, component_cycles, consumer_map, gauss_word
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
# the presentation


@dataclass(frozen=True)
class WirtingerPresentation:
    """Overpass generators, crossing relations and longitude data.

    Generators are named by the first arc of their overpass in walk
    order; a component's base overpass, which holds its lowest arc, is
    named by that arc.  ``relations`` lists, in walk order, tuples
    ``(target, source, over, sign)``: target = over^sign source
    over^-sign.  ``letters[comp]`` is the sequence of (overpass, sign)
    met at the component's underpasses, again in walk order, and
    ``gauss[comp]`` its self-crossing passages (crossing index,
    'under'|'over').

    Derived on construction: ``segment[g]``, the number of underpasses
    from the base of g's component to g (0 for the base), and
    ``steps[comp, other]``, the letters of ``comp`` whose overpass lies
    on ``other``, as (position, other, overpass segment, sign).
    """

    m: int
    arc_class: dict[int, int]
    class_comp: dict[int, int]
    base_class: dict[int, int]
    relations: tuple[tuple[int, int, int, int], ...]
    letters: dict[int, tuple[tuple[int, int], ...]]
    writhe: dict[int, int]
    gauss: dict[int, tuple[tuple[int, str], ...]] = field(default_factory=dict)
    segment: dict[int, int] = field(init=False, repr=False, compare=False)
    steps: dict[tuple[int, int], list] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        segment = dict.fromkeys(self.base_class.values(), 0)
        for tgt, src, _, _ in self.relations:
            segment.setdefault(tgt, segment[src] + 1)
        steps: dict[tuple[int, int], list] = {}
        for comp, word in self.letters.items():
            for k, (over, sign) in enumerate(word):
                other = self.class_comp[over]
                steps.setdefault((comp, other), []).append(
                    (k, other, segment[over], sign))
        object.__setattr__(self, "segment", segment)
        object.__setattr__(self, "steps", steps)

    def generators(self) -> list[int]:
        return sorted(set(self.arc_class.values()))


def wirtinger(d: LinkDiagram) -> WirtingerPresentation:
    comp_of, crs, cons = d.arc_components, d.crossings, consumer_map(d)
    comps = range(1, d.m + 1)
    arc_class: dict[int, int] = {}
    class_comp: dict[int, int] = {}
    base_class: dict[int, int] = {}
    relations: list[tuple[int, int, int, int]] = []
    letters = {c: () for c in comps}
    gauss = {c: () for c in comps}
    writhe = dict.fromkeys(comps, 0)

    walks = []
    for cyc in component_cycles(d):
        # Walk from the head of the base overpass, just past the last
        # underpass; each underpass starts the next overpass.
        p = len(cyc)
        while p and cons[cyc[p - 1]][1] != "under":
            p -= 1
        g, under = cyc[0], []
        for arc in cyc[p:] + cyc[:p]:
            arc_class[arc] = g
            idx, level = cons[arc]
            if level == "under":
                under.append(crs[idx])
                g = crs[idx].under_out
        walks.append((cyc[0], under))
        gauss[comp_of[cyc[0]]] = gauss_word(d, cons, cyc[0])

    for base, under in walks:
        comp = comp_of[base]
        base_class[comp] = base
        gens = [base] + [cr.under_out for cr in under[:-1]]
        class_comp.update(dict.fromkeys(gens, comp))
        overs = [arc_class[cr.over_in] for cr in under]
        signs = [cr.sign for cr in under]
        relations += zip(gens[1:] + gens[:1], gens, overs, signs)
        letters[comp] = tuple(zip(overs, signs))
        writhe[comp] = sum(cr.sign for cr in under
                           if comp_of[cr.over_in] == comp)

    return WirtingerPresentation(
        d.m, arc_class, class_comp, base_class, tuple(relations), letters,
        writhe, gauss)


class _PairSeries(Mapping):
    """The series of every generator of components i and j, in
    ``pair``.  ``runs[c]`` holds the positions in ``letters[c]`` of the
    steps that moved a value of c, and (u, v) before the first step and
    after each one: a generator at segment s has the values after the
    steps before s."""

    def __init__(self, pres: WirtingerPresentation, pair, runs):
        self._comp, self._segment = pres.class_comp, pres.segment
        self.pair, self.runs = pair, runs

    def __getitem__(self, g):
        c = self._comp.get(g)
        if c not in self.runs:
            raise KeyError(g)
        at, us, vs = self.runs[c]
        t = bisect_left(at, self._segment[g])
        if c == self.pair[0]:
            return (1, 1, 0, 0, us[t], vs[t])
        return (1, 0, 1, 0, us[t], vs[t])

    def __iter__(self):
        return (g for g, c in self._comp.items() if c in self.runs)

    def __len__(self):
        return sum(1 for _ in self)


def magnus_expand(pres: WirtingerPresentation, i: int, j: int,
                  require_exact: bool = True) -> Mapping[int, tuple]:
    """Series in ``h_i, h_j`` of every generator of components i and j,
    from two walk-order passes; see the module docstring.

    With ``require_exact`` the closing (pinned) relations are checked
    at degree three, and a defect raises :class:`ExpansionError`; a
    planar diagram with lk(i, j) = 0 has none.
    """
    if i == j:
        raise ValueError("the expansion needs two distinct components")
    steps = pres.steps
    i_on_j, j_on_i = steps.get((i, j), []), steps.get((j, i), [])

    # First pass, by the meridians: only u moves, by -sign at a letter
    # of i on j and by +sign at a letter of j on i.
    at_j = [r[0] for r in j_on_i]
    us_j = list(itertools.accumulate((r[3] for r in j_on_i), initial=0))
    first = {i: ([r[0] for r in i_on_j], list(itertools.accumulate(
                 (-r[3] for r in i_on_j), initial=0))),
             j: (at_j, us_j)}

    # Second pass, by the first pass's values.  On i, a letter of i
    # moves v alone and a letter of j moves both; on j, a letter of j
    # commutes and a letter of i needs no value of its overpass, so the
    # u of j is the first pass's.
    at_i, us_i, vs_i = [], [0], [0]
    u = v = 0
    for k, other, s, sign in sorted(steps.get((i, i), []) + i_on_j):
        at, first_u = first[other]
        u_o = first_u[bisect_left(at, s)]
        if other == i:
            v += sign * (u - u_o)
        else:
            v -= sign * u_o
            u -= sign
        at_i.append(k)
        us_i.append(u)
        vs_i.append(v)
    vs_j = list(itertools.accumulate(
        (r[3] * u_j + (r[3] < 0) for r, u_j in zip(j_on_i, us_j)), initial=0))

    if require_exact and (u, v, us_j[-1], vs_j[-1]) != (0, 0, 0, 0):
        raise ExpansionError(
            f"components {i} and {j}: relations are not exactly "
            "satisfiable at degree three; not a planar diagram")
    return _PairSeries(pres, (i, j), {i: (at_i, us_i, vs_i),
                                      j: (at_j, us_j, vs_j)})


def longitude_series(pres: WirtingerPresentation, series: _PairSeries,
                     comp: int) -> tuple:
    """Zero-framed longitude of ``comp`` in the two-letter algebra of
    ``series``, a result of :func:`magnus_expand`: its letters in
    reverse walk order, where letters of components outside the pair
    count as 1, times the meridian of ``comp`` to the power of minus its
    self-writhe."""
    (i, j), runs = series.pair, series.runs
    w = pres.writhe.get(comp, 0)
    a = b = aa = ab = aab = 0
    if comp == i:  # (1 + h_i)^-w
        a, aa = -w, w * (w + 1) // 2
    elif comp == j:  # (1 + h_j)^-w, truncated
        b = -w
    steps = pres.steps
    for k, other, s, sign in sorted(steps.get((comp, i), []) +
                                    steps.get((comp, j), [])):
        at, us, vs = runs[other]
        t = bisect_left(at, s)
        u, v = us[t], vs[t]
        # multiply by o^sign on the left: o = (1, 1, 0, 0, u, v) on i,
        # (1, 0, 1, 0, u, v) on j, and o^-1 as in the module docstring
        if other == i:
            if sign > 0:
                aab += v + ab
                ab += u + b
                aa += a
            else:
                aab += u - ab + b - v
                ab -= u + b
                aa += 1 - a
            a += sign
        else:
            aab += sign * v
            ab += sign * u
            b += sign
    return (1, a, b, aa, ab, aab)


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

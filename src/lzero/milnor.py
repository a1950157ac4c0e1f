"""Low-degree longitude invariants from the diagram's strand presentation.

The presentation has one generator per overpass (a maximal run of arcs
joined by passing over crossings) and one relation per crossing: the
underpass generator leaving a crossing is the one entering it
conjugated by the overpass generator, with exponent given by the
crossing sign.

``wirtinger`` walks each component once, from its lowest arc, counting
underpasses as it goes: it records every passage in walk order, every
over passage notes its component and raw segment (the underpasses met
since the base), and the tail after the last underpass folds back into
the base overpass.  One pass over the underpass letters, one per
crossing, then gives everything the battery reads: each letter's step
(position, overpass component, overpass segment, sign), the
self-writhes and every pair's signed crossing total (twice the linking
number); a component's Gauss word is its recorded passages at its self
letters' crossings.  The generator-level views that only checks and listings need
(``relations``, ``letters``, ``arc_class``, ``class_comp``,
``segment``) are built on demand from the same data.

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
from functools import cached_property

from .diagram import LinkDiagram, consumer_map
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
    """Overpass generators and the letters met along each component.

    A generator is named by the first arc of its overpass in walk
    order; a component's base overpass, which holds its lowest arc, is
    named by that arc.  ``gens[comp]`` lists the component's generators
    in walk order from the base, so a generator's place in that list is
    its *segment*, the number of underpasses from the base to it.

    ``steps[comp, other]`` lists the letters of ``comp`` whose overpass
    lies on ``other``, in walk order, as (position among the
    component's letters, other, overpass segment, sign).  ``writhe``
    holds each component's self-writhe, ``gauss[comp]`` its
    self-crossing passages (crossing index, 'under'|'over') in walk
    order from its base, and ``totals[i, j]`` the signed count of
    crossings between components i < j, in lex order.  ``under[comp]``
    lists the crossings (0-based) met at the component's underpasses,
    in walk order, and ``crossings`` is the diagram's.

    Derived on demand: ``class_comp`` (generator -> component),
    ``base_class``, ``segment`` (generator -> segment), ``letters[comp]``
    (the (overpass generator, sign) met at the component's underpasses),
    ``relations`` (in walk order, ``(target, source, over, sign)``:
    target = over^sign source over^-sign) and ``arc_class``
    (arc -> generator).
    """

    m: int
    gens: dict[int, list[int]]
    steps: dict[tuple[int, int], list]
    writhe: dict[int, int]
    gauss: dict[int, tuple[tuple[int, str], ...]]
    totals: dict[tuple[int, int], int]
    under: dict[int, list[int]] = field(default_factory=dict, repr=False,
                                        compare=False)
    crossings: tuple = field(default=(), repr=False, compare=False)

    @cached_property
    def class_comp(self) -> dict[int, int]:
        return {g: c for c, gens in self.gens.items() for g in gens}

    @cached_property
    def base_class(self) -> dict[int, int]:
        return {c: gens[0] for c, gens in self.gens.items()}

    @cached_property
    def segment(self) -> dict[int, int]:
        return {g: s for gens in self.gens.values()
                for s, g in enumerate(gens)}

    @cached_property
    def letters(self) -> dict[int, tuple[tuple[int, int], ...]]:
        word = {c: [] for c in range(1, self.m + 1)}
        for (c, other), steps in self.steps.items():
            gens = self.gens[other]
            word[c] += ((k, gens[s], sign) for k, _, s, sign in steps)
        return {c: tuple((g, sign) for _, g, sign in sorted(w))
                for c, w in word.items()}

    @cached_property
    def relations(self) -> tuple[tuple[int, int, int, int], ...]:
        relations = []
        for c, gens in self.gens.items():
            letters = self.letters[c]
            relations += ((gens[(k + 1) % len(gens)], gens[k], over, sign)
                          for k, (over, sign) in enumerate(letters))
        return tuple(relations)

    @cached_property
    def arc_class(self) -> dict[int, int]:
        crs, arc_class = self.crossings, {}
        for c, under in self.under.items():
            gens = self.gens[c]
            for k, idx in enumerate(under):
                arc_class[crs[idx].under_in] = gens[k]
        for (c, other), steps in self.steps.items():
            gens = self.gens[other]
            for k, _, s, _ in steps:
                arc_class[crs[self.under[c][k]].over_in] = gens[s]
        return arc_class

    def generators(self) -> list[int]:
        return sorted(self.class_comp)

    def linking(self):
        """Yield ``((i, j), lk)`` for every pair i < j in lex order.  An
        odd signed total raises :class:`DiagramStructureError` only once
        its pair is reached."""
        for (i, j), total in self.totals.items():
            yield (i, j), _half(i, j, total)


def wirtinger(d: LinkDiagram) -> WirtingerPresentation:
    """The presentation of a valid diagram, from one walk per component.

    Each component (a valid diagram has one circle per component, free
    loops aside) is walked once from its lowest arc, counting
    underpasses and recording its passages as it goes; every over
    passage records its component and raw segment, and the tail after
    the last underpass belongs to the base overpass (segment 0).  One
    pass over the underpass letters, one per crossing, then gives the
    steps, self-writhes and pair totals, and each component's Gauss
    word keeps the passages at its self letters' crossings.
    """
    comp_of, crs, m = d.arc_components, d.crossings, d.m
    cons = consumer_map(d)
    bases: dict[int, int] = {}
    walked = m - len(set(d.free_loops))
    for arc in sorted(comp_of):
        if comp_of[arc] not in bases:
            bases[comp_of[arc]] = arc
            if len(bases) == walked:
                break

    # starts[r] is the first arc of raw segment r: the base, then the
    # arc leaving each underpass
    over_seg = [0] * len(crs)
    over_comp = [0] * len(crs)
    count = [0] * (m + 1)
    walks = []
    for c, base in bases.items():
        under, starts, passages = [], [base], []
        s, arc = 0, base
        while True:
            passage = cons[arc]
            passages.append(passage)
            idx, level = passage
            if level == "under":
                under.append(idx)
                arc = crs[idx].under_out
                starts.append(arc)
                s += 1
            else:
                over_seg[idx] = s
                over_comp[idx] = c
                arc = crs[idx].over_out
            if arc == base:
                break
        count[c] = s
        walks.append((c, starts, under, passages))

    gens, steps, under_of = {}, {}, {}
    rows = {c: [0] * (m + 1) for c in range(1, m + 1)}
    gauss = {c: () for c in range(1, m + 1)}
    for c, starts, under, passages in walks:
        # the last raw segment, the tail, belongs to the base overpass
        gens[c], under_of[c], row = starts[:-1] or starts, under, rows[c]
        runs = [[] for _ in range(m + 1)]
        for k, idx in enumerate(under):
            other, s = over_comp[idx], over_seg[idx]
            if s == count[other]:
                s = 0
            sign = crs[idx].sign
            row[other] += sign
            runs[other].append((k, other, s, sign))
        for other, run in enumerate(runs):
            if run:
                steps[c, other] = run
        if runs[c]:
            own = {under[k] for k, *_ in runs[c]}
            gauss[c] = tuple(p for p in passages if p[0] in own)

    totals = {(i, j): rows[i][j] + rows[j][i]
              for i, j in itertools.combinations(range(1, m + 1), 2)}
    writhe = {c: rows[c][c] for c in range(1, m + 1)}
    return WirtingerPresentation(m, gens, steps, writhe, gauss, totals,
                                 under_of, crs)


class _PairSeries(Mapping):
    """The series of every generator of components i and j, in
    ``pair``.  ``runs[c]`` holds the positions in ``letters[c]`` of the
    steps that moved a value of c, and (u, v) before the first step and
    after each one: a generator at segment s has the values after the
    steps before s."""

    def __init__(self, pres: WirtingerPresentation, pair, runs):
        self._pres, self.pair, self.runs = pres, pair, runs

    def __getitem__(self, g):
        c = self._pres.class_comp.get(g)
        if c not in self.runs:
            raise KeyError(g)
        at, us, vs = self.runs[c]
        t = bisect_left(at, self._pres.segment[g])
        if c == self.pair[0]:
            return (1, 1, 0, 0, us[t], vs[t])
        return (1, 0, 1, 0, us[t], vs[t])

    def __iter__(self):
        return (g for c, gens in self._pres.gens.items() if c in self.runs
                for g in gens)

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
    (at_i, us_i, vs_i), (at_j, us_j, vs_j) = runs[i], runs[j]
    steps = pres.steps
    for k, other, s, sign in sorted(steps.get((comp, i), []) +
                                    steps.get((comp, j), [])):
        # multiply by o^sign on the left: o = (1, 1, 0, 0, u, v) on i,
        # (1, 0, 1, 0, u, v) on j, and o^-1 as in the module docstring
        if other == i:
            t = bisect_left(at_i, s)
            u, v = us_i[t], vs_i[t]
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
            t = bisect_left(at_j, s)
            aab += sign * vs_j[t]
            ab += sign * us_j[t]
            b += sign
    return (1, a, b, aa, ab, aab)


# ---------------------------------------------------------------------------
# the invariants


def _half(i: int, j: int, total: int) -> int:
    if total % 2:
        raise DiagramStructureError([
            f"components {i} and {j} cross an odd signed total of {total}; "
            "the code does not describe a planar diagram"])
    return total // 2


def linking_number(d: LinkDiagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j,
    from one scan over the crossings."""
    if i == j:
        raise ValueError("linking number needs two distinct components")
    for c in (i, j):
        if not 1 <= c <= d.m:
            raise ValueError(f"component {c} out of range 1..{d.m}")
    comp, pairs = d.arc_components, ((i, j), (j, i))
    total = sum(cr.sign for cr in d.crossings
                if (comp[cr.under_in], comp[cr.over_in]) in pairs)
    return _half(min(i, j), max(i, j), total)


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
    pres = wirtinger(d)
    pairs = ((a, b), (a, c), (b, c))
    for p, q in pairs:
        lk = _half(p, q, pres.totals[p, q])
        if lk != 0:
            raise InvariantUndefinedError(
                f"triple linking undefined: lk(K_{p},K_{q})={lk}",
                pair=(p, q), linking=lk)
    # The value needs only (a, b), but each pair's closing check covers
    # relations the others do not, and a non-planar code must not get a
    # value.
    series = [magnus_expand(pres, p, q) for p, q in pairs]
    mu = longitude_series(pres, series[0], c)[4]
    return _permutation_sign((i, j, k)) * mu

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
letters' crossings.  The presentation holds only what the battery
reads; generator lists, relations, letters and arc classes are never
built.

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
relations then hold whenever lk(i, j) = 0, since ``wirtinger`` reads
only planar diagrams (``diagram.check_valid`` gates it); they are not
checked again.

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
from dataclasses import dataclass

from .diagram import LinkDiagram, check_valid, consumer_map
from .errors import InvariantUndefinedError

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
    """The letters met along each component, with what the battery reads.

    A generator is known by its *segment*: the number of underpasses
    its component's walk meets from the base overpass, which holds the
    component's lowest arc, to it; the base is segment 0.

    ``steps[comp, other]`` lists the letters of ``comp`` whose overpass
    lies on ``other``, in walk order, as (position among the
    component's letters, other, overpass segment, sign).  ``writhe``
    holds each component's self-writhe, ``gauss[comp]`` its
    self-crossing passages (crossing index, 'under'|'over') in walk
    order from its base, and ``totals[i, j]`` the signed count of
    crossings between components i < j, in lex order.  A free loop has
    no steps.
    """

    m: int
    steps: dict[tuple[int, int], list]
    writhe: dict[int, int]
    gauss: dict[int, tuple[tuple[int, str], ...]]
    totals: dict[tuple[int, int], int]


def wirtinger(d: LinkDiagram) -> WirtingerPresentation:
    """The presentation of a valid diagram, from one walk per component.

    Each component (a valid diagram has one circle per component, free
    loops aside) is walked once from its lowest arc, counting
    underpasses and recording its passages as it goes; every over
    passage records its component and raw segment, and the tail after
    the last underpass belongs to the base overpass (segment 0).  One
    pass over the underpass letters, one per crossing, then gives the
    steps, self-writhes and pair totals, and each component's Gauss
    word keeps the passages at its self letters' crossings.  ``d``
    passes :func:`diagram.check_valid` first, so every walk returns to
    its base.
    """
    return _wirtinger(check_valid(d))


def _wirtinger(d: LinkDiagram) -> WirtingerPresentation:
    comp_of, crs, m = d.arc_components, d.crossings, d.m
    cons = consumer_map(d)
    bases: dict[int, int] = {}
    walked = m - len(set(d.free_loops))
    for arc in sorted(comp_of):
        if comp_of[arc] not in bases:
            bases[comp_of[arc]] = arc
            if len(bases) == walked:
                break

    over_seg = [0] * len(crs)
    over_comp = [0] * len(crs)
    count = [0] * (m + 1)
    walks = []
    for c, base in bases.items():
        under, passages = [], []
        s, arc = 0, base
        while True:
            idx, level = passage = cons[arc]
            passages.append(passage)
            if level == "under":
                under.append(idx)
                arc = crs[idx].under_out
                s += 1
            else:
                over_seg[idx] = s
                over_comp[idx] = c
                arc = crs[idx].over_out
            if arc == base:
                break
        count[c] = s
        walks.append((c, under, passages))

    steps = {}
    rows = {c: [0] * (m + 1) for c in range(1, m + 1)}
    gauss = {c: () for c in range(1, m + 1)}
    for c, under, passages in walks:
        row = rows[c]
        runs = [[] for _ in range(m + 1)]
        for k, idx in enumerate(under):
            other, s = over_comp[idx], over_seg[idx]
            # the last raw segment, the tail, belongs to the base overpass
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
    return WirtingerPresentation(m, steps, writhe, gauss, totals)


def _check_components(m: int, *comps: int) -> None:
    for c in comps:
        if not 1 <= c <= m:
            raise ValueError(f"component {c} out of range 1..{m}")


def magnus_expand(pres: WirtingerPresentation, i: int, j: int) -> tuple:
    """Series in ``h_i, h_j`` of every generator of components i and j,
    from two walk-order passes; see the module docstring.

    Returns ``((i, j), runs)``: for c in (i, j), ``runs[c] = (at, us,
    vs)`` holds the positions among c's letters of the steps that moved
    a value of c, and (u, v) before the first step and after each one;
    a generator at segment s has the values after the steps before s.
    """
    if i == j:
        raise ValueError("the expansion needs two distinct components")
    _check_components(pres.m, i, j)
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
    return (i, j), {i: (at_i, us_i, vs_i), j: (at_j, us_j, vs_j)}


def longitude_series(pres: WirtingerPresentation, series,
                     comp: int) -> tuple:
    """Zero-framed longitude of ``comp`` in the two-letter algebra of
    ``series``, a result of :func:`magnus_expand`: its letters in
    reverse walk order, where letters of components outside the pair
    count as 1, times the meridian of ``comp`` to the power of minus its
    self-writhe."""
    _check_components(pres.m, comp)
    (i, j), runs = series
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


def _linking(pres: WirtingerPresentation, i: int, j: int) -> int:
    """lk(i, j), in either order, from the presentation's pair total."""
    _check_components(pres.m, i, j)
    return pres.totals[min(i, j), max(i, j)] // 2


def linking_number(d: LinkDiagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j,
    the pair total of the presentation's walk."""
    if i == j:
        raise ValueError("linking number needs two distinct components")
    return _linking(wirtinger(d), i, j)


def triple_linking(d: LinkDiagram, i: int, j: int, k: int) -> int:
    """Triple linking number of components (i, j, k).

    Defined only when the three pairwise linking numbers vanish;
    otherwise :class:`InvariantUndefinedError` is raised naming the
    first offending pair.  Alternating under permutations of (i, j, k).
    """
    if len({i, j, k}) != 3:
        raise ValueError("triple linking needs three distinct components")
    pres = wirtinger(d)
    _check_components(pres.m, i, j, k)
    a, b, c = sorted((i, j, k))
    for p, q in ((a, b), (a, c), (b, c)):
        lk = _linking(pres, p, q)
        if lk != 0:
            raise InvariantUndefinedError(
                f"triple linking undefined: lk(K_{p},K_{q})={lk}",
                pair=(p, q), linking=lk)
    mu = longitude_series(pres, magnus_expand(pres, a, b), c)[4]
    # the sign of the permutation sorting (i, j, k)
    return (-1) ** ((i > j) + (i > k) + (j > k)) * mu

"""Low-degree longitude invariants from the diagram's strand presentation.

The presentation has one generator per overpass (a maximal run of arcs
joined by passing over crossings) and one relation per crossing: the
underpass generator leaving a crossing is the one entering it
conjugated by the overpass generator, with exponent given by the
crossing sign.

Generators are expanded as power series in non-commuting variables
``h_1 .. h_m``, one per component, truncated above total degree two.
The base overpass of each component (the one holding its lowest arc
id) is pinned to the exact series ``1 + h_c``; every other overpass of
the component then has the same degree-one part and a degree-two part
accumulated by walking the component once from the base arc.  A
conjugation reads only the degree-one part of its overpass, which is
fixed from the start, and the relations are listed in walk order, so
one pass over them settles every generator.  Relations are only
exactly satisfiable when the pairwise linking numbers vanish —
precisely the regime where the degree-two longitude coefficients below
are meaningful — and ``magnus_expand`` checks that on demand.

Walking once around a component from its base arc, with overpass
letters ``a_1 .. a_n`` met at its underpasses, carries the base
generator ``x`` to ``(a_n .. a_1) x (a_n .. a_1)^-1``.  The longitude,
which commutes with the base meridian, is therefore the product of the
letters in reverse walk order, corrected by the component's meridian
to the power of minus its self-writhe.  Its degree-one coefficients
are the linking numbers.  When all pairwise linking numbers vanish,
the coefficient of ``h_i h_j`` in the longitude of ``k`` is the triple
linking number of ``(i, j, k)``, alternating under permutations; one
expansion of the whole link gives every triple at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import LinkDiagram, component_cycles, consumer_map, sublink
from .errors import (DiagramStructureError, ExpansionError,
                     InvariantUndefinedError)

__all__ = [
    "MagnusSeries",
    "WirtingerPresentation",
    "wirtinger",
    "magnus_expand",
    "relation_defects",
    "longitude_series",
    "linking_number",
    "triple_linking",
    "mubar_iijj",
]


@dataclass(frozen=True)
class MagnusSeries:
    """Truncated series c + sum a_i h_i + sum b_ij h_i h_j (i, j free).

    The variables do not commute: ``quad`` keys are ordered pairs.
    Zero coefficients are never stored.
    """

    const: int = 0
    lin: tuple[tuple[int, int], ...] = ()
    quad: tuple[tuple[tuple[int, int], int], ...] = ()

    @staticmethod
    def make(const, lin=None, quad=None) -> "MagnusSeries":
        lin = {i: c for i, c in (lin or {}).items() if c}
        quad = {k: c for k, c in (quad or {}).items() if c}
        return MagnusSeries(const, tuple(sorted(lin.items())),
                            tuple(sorted(quad.items())))

    @staticmethod
    def unit() -> "MagnusSeries":
        return MagnusSeries(1)

    @staticmethod
    def meridian(comp: int) -> "MagnusSeries":
        return MagnusSeries(1, ((comp, 1),))

    def lin_dict(self) -> dict[int, int]:
        return dict(self.lin)

    def quad_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.quad)

    def mul(self, other: "MagnusSeries") -> "MagnusSeries":
        a0, b0 = self.const, other.const
        alin, blin = self.lin_dict(), other.lin_dict()
        lin: dict[int, int] = {}
        for i, c in alin.items():
            lin[i] = lin.get(i, 0) + b0 * c
        for i, c in blin.items():
            lin[i] = lin.get(i, 0) + a0 * c
        quad: dict[tuple[int, int], int] = {}
        for k, c in self.quad:
            quad[k] = quad.get(k, 0) + b0 * c
        for k, c in other.quad:
            quad[k] = quad.get(k, 0) + a0 * c
        for i, ca in alin.items():
            for j, cb in blin.items():
                k = (i, j)
                quad[k] = quad.get(k, 0) + ca * cb
        return MagnusSeries.make(a0 * b0, lin, quad)

    def inverse(self) -> "MagnusSeries":
        c = self.const
        if c not in (1, -1):
            raise ValueError(f"series with constant term {c} has no inverse")
        lin = {i: -v for i, v in self.lin}
        quad = {k: -v for k, v in self.quad}
        alin = self.lin_dict()
        for i, ca in alin.items():
            for j, cb in alin.items():
                k = (i, j)
                quad[k] = quad.get(k, 0) + c * ca * cb
        return MagnusSeries.make(c, lin, quad)

    def power(self, exp: int) -> "MagnusSeries":
        base = self if exp >= 0 else self.inverse()
        out = MagnusSeries.unit()
        for _ in range(abs(exp)):
            out = out.mul(base)
        return out

    def coefficient(self, vars: tuple[int, ...]) -> int:
        if len(vars) == 0:
            return self.const
        if len(vars) == 1:
            return self.lin_dict().get(vars[0], 0)
        if len(vars) == 2:
            return self.quad_dict().get((vars[0], vars[1]), 0)
        return 0


def _conjugate(x: MagnusSeries, o: MagnusSeries, exp: int) -> MagnusSeries:
    """o^exp * x * o^-exp, truncated: only o's degree-one part matters."""
    xlin, olin = x.lin_dict(), o.lin_dict()
    quad = x.quad_dict()
    for i, co in olin.items():
        for j, cx in xlin.items():
            quad[(i, j)] = quad.get((i, j), 0) + exp * co * cx
            quad[(j, i)] = quad.get((j, i), 0) - exp * co * cx
    return MagnusSeries.make(x.const, xlin, quad)


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


def magnus_expand(pres: WirtingerPresentation,
                  require_exact: bool = True) -> dict[int, MagnusSeries]:
    """Series for every generator; see the module docstring.

    With ``require_exact`` the relations are re-checked after the pass
    and any degree-two defect raises :class:`ExpansionError`; defects
    occur exactly when some pairwise linking number is nonzero, so
    gated callers never see the error.
    """
    series = {r: MagnusSeries.meridian(c)
              for r, c in pres.class_comp.items()}
    pinned = set(pres.base_class.values())
    for tgt, src, over, sign in pres.relations:
        if tgt not in pinned:
            series[tgt] = _conjugate(series[src], series[over], sign)

    if require_exact and relation_defects(pres, series):
        raise ExpansionError(
            "relations are not exactly satisfiable at degree two; "
            "some pairwise linking number is nonzero")
    return series


def relation_defects(pres: WirtingerPresentation,
                     series: dict[int, MagnusSeries]):
    """Relations whose two sides differ, with the degree-two mismatch."""
    out = []
    for tgt, src, over, sign in pres.relations:
        want = _conjugate(series[src], series[over], sign)
        have = series[tgt]
        if want != have:
            diff = want.quad_dict()
            for k, v in have.quad:
                diff[k] = diff.get(k, 0) - v
            out.append(((tgt, src, over, sign),
                        {k: v for k, v in diff.items() if v}))
    return out


def longitude_series(pres: WirtingerPresentation,
                     series: dict[int, MagnusSeries],
                     comp: int) -> MagnusSeries:
    """Zero-framed longitude of ``comp``: its letters in reverse walk
    order (see the module docstring), as a truncated series."""
    out = MagnusSeries.unit()
    for over, sign in reversed(pres.letters.get(comp, ())):
        out = out.mul(series[over].power(sign))
    w = pres.writhe.get(comp, 0)
    if w:
        out = out.mul(MagnusSeries.meridian(comp).power(-w))
    return out


# ---------------------------------------------------------------------------
# two-letter series to degree three: 6-tuples of coefficients on the
# words (), i, j, ii, ij, iij.  The set is closed under taking factors,
# so truncating to it is a ring map.  Every series here has constant 1.


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


def mubar_iijj(pres: WirtingerPresentation, i: int, j: int) -> int:
    """Coefficient of ``h_i h_i h_j`` in the zero-framed longitude of
    ``j``, expanded in ``h_i, h_j`` alone; with lk(i, j) = 0 it is minus
    the sublink's degree-three Conway coefficient (Cochran).

    Other components' generators count as 1, as deleting them would
    make them, so no surgery is needed.  The relations of ``i`` and
    ``j`` go in walk order twice: the first pass reads the meridians and
    is exact through degree two, the second reads the first's values
    and is exact through degree three, and checks the closing (pinned)
    relations; a defect raises :class:`ExpansionError`.
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
            elif final and value != series[tgt]:
                raise ExpansionError(
                    f"components {i} and {j}: relations are not exactly "
                    "satisfiable at degree three; not a planar diagram")
    out = (1, 0, -pres.writhe.get(j, 0), 0, 0, 0)
    for over, sign in pres.letters.get(j, ()):
        o = series.get(over)
        if o is not None:
            out = _mul2(o if sign > 0 else _inv2(o), out)
    return out[5]


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


def triple_linkings(d: LinkDiagram, pres: WirtingerPresentation | None = None
                    ) -> dict[tuple[int, int, int], int]:
    """Every triple linking number, keyed by lex-ordered triple.

    One presentation (``pres`` if given, else built from ``d``) and one
    expansion of the whole link: the value for i < j < k is the
    coefficient of ``h_i h_j`` in the longitude of ``k``.  Requires all
    pairwise linking numbers to vanish; otherwise the expansion raises
    :class:`ExpansionError`.
    """
    if d.m < 3:
        return {}
    pres = pres or wirtinger(d)
    series = magnus_expand(pres, require_exact=True)
    ell = {k: longitude_series(pres, series, k) for k in range(3, d.m + 1)}
    return {(i, j, k): ell[k].coefficient((i, j))
            for i, j, k in itertools.combinations(range(1, d.m + 1), 3)}


def triple_linking(d: LinkDiagram, i: int, j: int, k: int) -> int:
    """Triple linking number of components (i, j, k).

    Defined only when the three pairwise linking numbers vanish;
    otherwise :class:`InvariantUndefinedError` is raised naming the
    first offending pair.  Alternating under permutations of (i, j, k).
    """
    if len({i, j, k}) != 3:
        raise ValueError("triple linking needs three distinct components")
    ordered = sorted((i, j, k))
    sub = sublink(d, ordered)
    for (p, q), total in _pair_totals(sub).items():
        a, b = ordered[p - 1], ordered[q - 1]
        lk = _half(a, b, total)
        if lk != 0:
            raise InvariantUndefinedError(
                f"triple linking undefined: lk(K_{a},K_{b})={lk}",
                pair=(a, b), linking=lk)
    return _permutation_sign((i, j, k)) * triple_linkings(sub)[1, 2, 3]

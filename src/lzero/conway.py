"""Conway polynomial of a diagram via the skein recursion.

The engine resolves one crossing at a time against the relation

    nabla(L+) - nabla(L-) = z * nabla(L0)

anchored at nabla(unknot) = 1 and nabla(split link) = 0.  A diagram is
*descending* for a walk order if, traversing every component from its
base arc, each crossing is first met on its over strand; descending
diagrams are unlinks.  Switching the first violating crossing moves the
walk strictly forward and smoothing drops a crossing, so the recursion
terminates.

Both engines walk components in numeric order.  ``conway_polynomial``
adds exact rewrites that never change the value (removing curls and
opposite-sign bigons, returning 0 early on split diagrams) and memoizes
on a code renamed by one walk of the diagram.  Curls and bigons go in
batched rounds: one scan collects every curl and every bigon whose
crossings are still untaken, and one surgery removes them all.
``conway_polynomial_naive`` is kept free of all of that — no rewrites,
no memo — so the two give genuinely independent routes to the same
value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import (Crossing, LinkDiagram, component_cycles, consumer_map,
                      crossing_graph_parts, delete_crossings,
                      renumber_components)

__all__ = [
    "ConwayPolynomial",
    "conway_polynomial",
    "conway_polynomial_naive",
    "switch_crossing",
    "smooth_crossing",
]


@dataclass(frozen=True)
class ConwayPolynomial:
    """Integer polynomial in z, held sparsely as ((degree, coeff), ...)."""

    coeffs: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(d: dict[int, int]) -> "ConwayPolynomial":
        return ConwayPolynomial(tuple(sorted(
            (deg, c) for deg, c in d.items() if c != 0)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def coefficient(self, degree: int) -> int:
        return dict(self.coeffs).get(degree, 0)

    def add(self, other: "ConwayPolynomial") -> "ConwayPolynomial":
        out = dict(self.coeffs)
        for deg, c in other.coeffs:
            out[deg] = out.get(deg, 0) + c
        return ConwayPolynomial.from_dict(out)

    def sub(self, other: "ConwayPolynomial") -> "ConwayPolynomial":
        out = dict(self.coeffs)
        for deg, c in other.coeffs:
            out[deg] = out.get(deg, 0) - c
        return ConwayPolynomial.from_dict(out)

    def shift(self, k: int = 1) -> "ConwayPolynomial":
        """Multiply by z**k."""
        return ConwayPolynomial(tuple((deg + k, c) for deg, c in self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for deg, c in self.coeffs:
            mag = abs(c)
            if deg == 0:
                body = str(mag)
            else:
                power = "z" if deg == 1 else f"z^{deg}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def json_pairs(self) -> list[list[int]]:
        return [[deg, c] for deg, c in self.coeffs]


ZERO = ConwayPolynomial()
ONE = ConwayPolynomial(((0, 1),))


# ---------------------------------------------------------------------------
# skein primitives


def switch_crossing(d: LinkDiagram, cid: int) -> LinkDiagram:
    """Exchange over and under at crossing ``cid`` (1-based), flip its sign."""
    cr = d.crossing(cid)
    crossings = list(d.crossings)
    crossings[cid - 1] = cr.switched()
    return LinkDiagram(d.m, tuple(crossings), d.arc_components,
                       d.free_loops, name=d.name)


def smooth_crossing(d: LinkDiagram, cid: int) -> LinkDiagram:
    """Oriented smoothing of crossing ``cid``: each incoming strand
    continues into the other strand's outgoing arc.  Components are
    renumbered from the resulting circle structure (keyed by smallest
    old component id, then smallest arc id), so the count may go up or
    down by one."""
    cr = d.crossing(cid)
    fused = delete_crossings(d, {cid - 1},
                             [(cr.under_in, cr.over_out),
                              (cr.over_in, cr.under_out)])
    return renumber_components(fused)


# ---------------------------------------------------------------------------
# walks


def _violations(d: LinkDiagram) -> list[int]:
    """0-based indices of crossings first met on their under strand,
    walking components in numeric order, each from its lowest arc."""
    cons = consumer_map(d)
    cycles = sorted(component_cycles(d), key=lambda c: d.arc_components[c[0]])
    seen = set()
    bad = []
    for cyc in cycles:
        for arc in cyc:
            idx, level = cons[arc]
            if idx not in seen:
                seen.add(idx)
                if level == "under":
                    bad.append(idx)
    return bad


# ---------------------------------------------------------------------------
# exact reductions


def _kink_fusion(cr: Crossing):
    if cr.under_out == cr.over_in:
        return (cr.under_in, cr.over_out)
    if cr.over_out == cr.under_in:
        return (cr.over_in, cr.under_out)
    return None


def _reduce(d: LinkDiagram) -> LinkDiagram:
    """Remove curls and opposite-sign bigons until none is left.

    Each round scans the diagram once: it takes every curl, then every
    opposite-sign bigon whose two crossings are still untaken, and
    removes them all with one :func:`delete_crossings` call, which
    resolves fusion chains through adjacent removals and records
    chains that close up as free loops.  Rounds repeat until a scan
    finds nothing.
    """
    while True:
        kill: set[int] = set()
        fusions = []
        for idx, cr in enumerate(d.crossings):
            fusion = _kink_fusion(cr)
            if fusion is not None:
                kill.add(idx)
                fusions.append(fusion)
        cons = consumer_map(d)
        for idx, a in enumerate(d.crossings):
            nxt = cons.get(a.over_out)
            if idx in kill or nxt is None or nxt[1] != "over":
                continue
            jdx = nxt[0]
            b = d.crossings[jdx]
            if jdx in kill or a.sign != -b.sign:
                continue
            if a.under_out == b.under_in:
                under = (a.under_in, b.under_out)
            elif b.under_out == a.under_in:
                under = (b.under_in, a.under_out)
            else:
                continue
            kill.update((idx, jdx))
            fusions += [(a.over_in, b.over_out), under]
        if not kill:
            return d
        d = delete_crossings(d, kill, fusions)


# ---------------------------------------------------------------------------
# canonical memo key


def canonical_key(d: LinkDiagram):
    """Relabeling-canonical fingerprint of a diagram.

    Components are walked in order of their lowest arc id, each from
    that arc, and arcs are renamed by first appearance.  The key is the
    flat tuple ``(m, free loops, *code)``, the code being the renamed
    crossings, sorted and run together.  Diagrams equal up to a
    relabeling that keeps the lowest arcs share a key; a missed
    identification only costs a memo miss.
    """
    walk = itertools.chain.from_iterable(component_cycles(d))
    rename = {arc: n for n, arc in enumerate(walk, start=1)}
    code = sorted((cr.sign, rename[cr.under_in], rename[cr.under_out],
                   rename[cr.over_in], rename[cr.over_out])
                  for cr in d.crossings)
    return (d.m, len(d.free_loops), *itertools.chain.from_iterable(code))


# ---------------------------------------------------------------------------
# the two engines

_MEMO: dict = {}


def conway_polynomial(d: LinkDiagram, memo: dict | None = None) -> ConwayPolynomial:
    """Conway polynomial, with reductions and memoization.

    ``memo`` may be supplied to control caching; by default a shared
    module-level cache is used.
    """
    if memo is None:
        memo = _MEMO
    return _conway(d, memo)


def _conway(d: LinkDiagram, memo: dict) -> ConwayPolynomial:
    d = _reduce(d)
    if d.free_loops or crossing_graph_parts(d) > 1:
        # A crossing-free circle, or a crossing graph in several parts,
        # makes the diagram split unless it is a lone unknot.
        if not d.crossings and d.m == 1:
            return ONE
        return ZERO
    if not d.crossings:
        return ONE if d.m == 1 else ZERO

    key = canonical_key(d)
    hit = memo.get(key)
    if hit is not None:
        return hit

    bad = _violations(d)
    if not bad:
        result = ONE if d.m == 1 else ZERO
    else:
        cid = bad[0] + 1
        sign = d.crossing(cid).sign
        switched = _conway(switch_crossing(d, cid), memo)
        smoothed = _conway(smooth_crossing(d, cid), memo)
        if sign > 0:
            result = switched.add(smoothed.shift())
        else:
            result = switched.sub(smoothed.shift())
    memo[key] = result
    return result


def conway_polynomial_naive(d: LinkDiagram) -> ConwayPolynomial:
    """Reference implementation: bare skein recursion, nothing else.

    No rewrites, no split detection, no caching.  Slow but
    independent, for checking the engine above.
    """
    bad = _violations(d)
    if not bad:
        return ONE if d.m == 1 else ZERO
    cid = bad[0] + 1
    sign = d.crossing(cid).sign
    switched = conway_polynomial_naive(switch_crossing(d, cid))
    smoothed = conway_polynomial_naive(smooth_crossing(d, cid))
    if sign > 0:
        return switched.add(smoothed.shift())
    return switched.sub(smoothed.shift())

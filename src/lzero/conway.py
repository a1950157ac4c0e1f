"""Conway polynomial of a diagram as one integer determinant.

Kauffman's state sum (*Formal Knot Theory*, 1983).  A connected planar
diagram with n crossings has n + 2 faces; star the two on either side
of an arc that separates two faces.  A *state* gives every crossing one
of its corners so that each unstarred face gets exactly one.  At a crossing of sign e the
corner between the outgoing strands is labelled s^e, the corner between
the incoming strands (the *black hole*) s^-e, and the side corners 1:

    nabla(s - 1/s) = sum over states of (-1)^(black holes) * labels.

Let M (crossings x unstarred faces) sum the labels of each crossing's
corners in each face, and S the same with -1 on black holes and +1
elsewhere.  Each state's sign (-1)^(black holes) is its permutation
sign times one global factor (the clock theorem), so det S is that
factor times the number of states, and

    nabla(s - 1/s) = sign(det S) * det M.

Both matrices are read off the dart table of ``diagram``: each dart
enters one corner, whose face lies on the dart's left, and the corner's
S entry and power of s are constants of the crossing sign and the slot.
Every state is one monomial s^k with |k| <= n, so |det S| bounds every
coefficient: det M is taken over the integers at s = 2^K, read back as
signed base-2^K digits and rewritten in z = s - 1/s.

The diagram passes ``diagram.check_valid`` first, so it is planar, and
so is every reduction of it.  Curls and the opposite-sign bigons of
``diagram.bigons`` go first, in batched rounds (one scan and one
surgery per round).  Split diagrams return 0: a free loop, or a face
walk past n + 2 faces (p parts have n + 2p).  The tests check the
engine with the skein primitives kept here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import (Crossing, LinkDiagram, _darts, _orbits,
                      _renumber_components, bigons, check_valid,
                      component_cycles, delete_crossings, is_curl)

__all__ = [
    "ConwayPolynomial",
    "conway_polynomial",
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
    return _replaced(d, cid, d.crossing(cid).switched())


def smooth_crossing(d: LinkDiagram, cid: int) -> LinkDiagram:
    """Oriented smoothing of crossing ``cid``: each incoming strand
    continues into the other strand's outgoing arc.  With the crossing's
    two out-slots swapped, each strand runs straight through it, and
    it is deleted.  Components are renumbered from the resulting circle
    structure (keyed by smallest old component id, then smallest arc
    id), so the count may go up or down by one."""
    cr = check_valid(d).crossing(cid)
    swapped = Crossing(cr.sign, cr.under_in, cr.over_out, cr.over_in,
                       cr.under_out)
    return _renumber_components(
        delete_crossings(_replaced(d, cid, swapped), {cid - 1}))


def _replaced(d: LinkDiagram, cid: int, cr: Crossing) -> LinkDiagram:
    """``d`` with crossing ``cid`` (1-based) replaced by ``cr``."""
    crossings = list(d.crossings)
    crossings[cid - 1] = cr
    return LinkDiagram(d.m, tuple(crossings), d.arc_components, d.free_loops)


# ---------------------------------------------------------------------------
# exact reductions


def _reduce(d: LinkDiagram) -> LinkDiagram:
    """Remove curls and opposite-sign bigons until none is left.

    Each round scans the diagram once: it takes every curl, then every
    opposite-sign bigon whose two crossings are still untaken, and
    removes them all with one :func:`delete_crossings` call, through
    which each strand runs straight; a strand that closes among them
    becomes a free loop.  Rounds repeat until a scan finds nothing.
    """
    while True:
        kill = {idx for idx, cr in enumerate(d.crossings) if is_curl(cr)}
        for idx, jdx in bigons(d):
            if idx not in kill and jdx not in kill:
                kill.update((idx, jdx))
        if not kill:
            return d
        d = delete_crossings(d, kill)


# ---------------------------------------------------------------------------
# canonical key


def canonical_key(d: LinkDiagram):
    """Relabeling-canonical fingerprint of a diagram.

    Components are walked in order of their lowest arc id, each from
    that arc, and arcs are renamed by first appearance.  The key is the
    flat tuple ``(m, free loops, *code)``, the code being the renamed
    crossings, sorted and run together.  Diagrams equal up to a
    relabeling that keeps the lowest arcs share a key.  The engine no
    longer uses it; ``bench/tracer.py`` still names it as a layer.
    """
    walk = itertools.chain.from_iterable(component_cycles(d))
    rename = {arc: n for n, arc in enumerate(walk, start=1)}
    code = sorted((cr.sign, rename[cr.under_in], rename[cr.under_out],
                   rename[cr.over_in], rename[cr.over_out])
                  for cr in d.crossings)
    return (d.m, len(d.free_loops), *itertools.chain.from_iterable(code))


# ---------------------------------------------------------------------------
# the state-sum determinant

# sign -> (entry of S, power of s in M) of the corner a dart entering at
# slot k of ``diagram._slots`` meets (see ``diagram._darts``).  Rows of
# M are scaled by s: s^(1+e) on the out-corner, s^(1-e) on the black
# hole (entry -1 in S), s on the sides.
_CORNERS = {1: ((1, 1), (1, 1), (-1, 0), (1, 2)),
            -1: ((-1, 2), (1, 0), (1, 1), (1, 1))}


def conway_polynomial(d: LinkDiagram) -> ConwayPolynomial:
    """Conway polynomial, as one integer determinant after reduction."""
    d = _reduce(check_valid(d))
    if not d.crossings:
        return ONE if d.m == 1 else ZERO
    n = len(d.crossings)
    _, nxt, order = _darts(d)
    walks = _orbits(nxt, order)
    if d.free_loops or len(walks) > n + 2:  # split: p parts, n + 2p faces
        return ZERO
    face_of = {p: f for f, walk in enumerate(walks) for p in walk}
    # ``order`` pairs each arc's backward dart with its forward one
    starred = next((face_of[p], face_of[q])
                   for p, q in zip(order[0::2], order[1::2])
                   if face_of[p] != face_of[q])
    columns = sorted(set(range(n + 2)) - set(starred),
                     key=lambda f: len(walks[f]))

    def matrix(label):  # a dart's corner is in the face on its left
        rows = [{} for _ in range(n)]
        for k, f in enumerate(columns):
            for p in walks[f]:
                row = rows[p >> 2]
                row[k] = row.get(k, 0) + label[p]
        return rows

    corners = [c for cr in d.crossings for c in _CORNERS[cr.sign]]
    states = _det([{k: v for k, v in row.items() if v}
                   for row in matrix([s for s, _ in corners])])
    bits = abs(states).bit_length() + 1
    label = (1, 1 << bits, 1 << 2 * bits)
    value = _det(matrix([label[e] for _, e in corners]))
    value *= 1 if states > 0 else -1
    # signed base-2^bits digits, the lowest for s^-n
    laurent = {}
    for power in range(-n, n + 1):
        digit = value & ((1 << bits) - 1)
        digit -= (digit >> (bits - 1)) << bits
        laurent[power] = digit
        value = (value - digit) >> bits
    return _in_z(laurent)


def _det(rows: list[dict[int, int]]) -> int:
    """Determinant of a square sparse integer matrix, given as rows
    ``{column: nonzero entry}`` (consumed), by fraction-free Bareiss
    elimination pivoting on the shortest row.  A row with no entry in
    the pivot column is only rescaled by that step, so it is skipped,
    and the next step that needs it folds the missed rescalings into
    its one exact division."""
    n = len(rows)
    holders = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    # The true values of row i at step k are its stored values times
    # pivots[k] / pivots[stage[i]]; pivots[0] = 1.
    pivots, stage, order = [1], [0] * n, []
    for k in range(n):
        if not holders[k]:
            return 0
        r = min(holders[k], key=lambda i: (len(rows[i]), i))
        for c in rows[r]:
            holders[c].discard(r)
        pivot_row = rows[r]
        if stage[r] != k:
            top, bottom = pivots[k], pivots[stage[r]]
            pivot_row = {c: v * top // bottom for c, v in pivot_row.items()}
        p = pivot_row.pop(k)
        for i in holders[k]:
            row, bottom = rows[i], pivots[stage[i]]
            a = row.pop(k)
            for c, v in row.items():
                if c not in pivot_row:
                    row[c] = v * p // bottom
            for c, v in pivot_row.items():
                entry = (row.get(c, 0) * p - a * v) // bottom
                if entry:
                    row[c] = entry
                    holders[c].add(i)
                else:
                    row.pop(c, None)
                    holders[c].discard(i)
            stage[i] = k + 1
        holders[k].clear()
        pivots.append(p)
        order.append(r)
    # the sign of the row order: (-1)^(n - cycles)
    sign, seen = pivots[-1], set()
    for i in order:
        if i not in seen:
            sign = -sign
            while i not in seen:
                seen.add(i)
                i = order[i]
    return sign if n % 2 == 0 else -sign


def _in_z(laurent: dict[int, int]) -> ConwayPolynomial:
    """Rewrite a Laurent polynomial in s as a polynomial in z = s - 1/s,
    peeling c * (s - 1/s)^k off the top degree.  Only the powers >= 0
    are kept up to date; they fix the result."""
    z = {}
    for top in range(max(laurent), -1, -1):
        c = z[top] = laurent[top]
        if not c:
            continue
        for i in range(top // 2 + 1):
            laurent[top - 2 * i] -= c
            c = -c * (top - i) // (i + 1)
    return ConwayPolynomial.from_dict(z)

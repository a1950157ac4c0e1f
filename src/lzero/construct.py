"""Deterministic diagram builders.

One builder, ``_Builder``, makes every diagram.  It runs components as
horizontal strands, row 1 at the top, and splices braid-word tangles
into them.  Letters are nonzero integers: letter ``+i`` crosses the
strand at position ``i`` over the strand at position ``i+1`` with sign
+1 (the strands trade places); ``-i`` sends it under with sign -1.  A
``Tangle`` holds its strand count, its word and, for each strand past
the participants, the participant that owns it; such a strand is
capped, entering and leaving the tangle at its own position.

``braid_closure`` splices its whole word through a builder with one
row per strand, closes every row, and numbers the resulting circles
with ``diagram._renumber_components``.

``build_from_gadgets`` composes a link out of local *gadgets* spliced
serially into an m-component unlink, one slice after another:

* ``("TREFOIL", (i,))``        — connect-sum a trefoil into component i
* ``("WHITEHEAD", (i, j))``    — clasp components i and j (zero linking,
                                 odd double-pair invariant)
* ``("BORROMEAN", (i, j, k), v)`` — thread i, j, k through a braid
                                 of triple linking number v != 0

These three kinds realize every class.  The rows move by *lazy
transport*.  The builder keeps their order, top to bottom.  A gadget on
c1 < ... < ck is spliced with the rows in one order: the other rows
above ck, then c1..ck, then the rows below ck.  Between two gadgets the
rows reach the next order by the fewest adjacent swaps, and after the
last gadget they go home the same way.  At every swap the lower-numbered
strand passes over (which keeps the skein oracle's walk order
violation-free outside the gadget cores).  A one-strand gadget is a
local knot, which slides along its strand, so it is spliced wherever
its strand is and moves nothing.

Every transport is layered: strand r can sit at height -r, since a
lower-numbered strand passes over it wherever the two cross.  Two
layered braids with the same ends are isotopic rel ends, because each
strand can be moved within its own level.  Diving from home to every
gadget and climbing back after it, as the tests' reference builder
does, is layered too, so each transport is isotopic to one gadget's
climb followed by the next one's dive.  The built link is therefore the
serial stack of the gadget links, not just a link in the same class,
and the pairs of rows that the climb and the dive cross twice are not
drawn.

The first multi-strand gadget is reached by that dive from home, not
by the fewest swaps: each mover in turn passes down over the rows down
to ck and then under the movers before it, so every two movers cross
twice.  Those crossings give the m = 3 Borromean representatives their
R3 sites; reached by the fewest swaps, 24 of the 128 m = 3 classes with
b = +-1 (those with b = +1 and c12 = 0) would have none.

A triple number v is one gadget: the Borromean braid for v = +1, and
otherwise the commutator [A12^p, A23^q] = s1^2p s2^2q s1^-2p s2^-2q of
pure-braid generators, p = +-isqrt(|v|) with the sign of v and
q = |v| // |p|, then [A12^+-1, A23^r] for the remainder r.  A
commutator's closure has zero linking numbers, and mubar(123) is
bilinear in its two exponents (Milnor, "Isotopy of links", 1957), so
it is pq; v costs 4(|p| + q) letters, plus 4(1 + r) for a remainder.

``_schedule`` lists the gadgets with the transport each one needs.
``build_from_gadgets`` draws that list, and ``stack_crossings`` counts
it without building anything: the letters, the dive, and the pairs of
rows that two consecutive orders put the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .diagram import Crossing, LinkDiagram, _check_slots, _renumber_components

__all__ = ["braid_closure", "build_from_gadgets", "stack_crossings"]


def braid_closure(word, strands: int) -> LinkDiagram:
    """Close the braid given by ``word`` on ``strands`` strands.

    Components are numbered by their smallest arc id; strands untouched
    by the word close into free loops.
    """
    n = strands
    if n < 1:
        raise ValueError("a braid needs at least one strand")
    for letter in word:
        if letter == 0 or abs(letter) >= n:
            raise ValueError(f"letter {letter} out of range for {n} strands")
    b = _Builder(n)
    b.splice(Tangle(n, tuple(word)), tuple(range(1, n + 1)))
    return _check_slots(_renumber_components(b.finish()))


# ---------------------------------------------------------------------------
# tangle templates


@dataclass(frozen=True)
class Tangle:
    """A braid-word pattern spliced into passing strands.

    The participants enter and leave at positions 1, 2, ...  The strands
    after them are capped: each starts and ends inside the tangle at its
    own position, and ``caps`` names the participant slot owning each
    one, in position order.
    """

    strands: int
    word: tuple[int, ...]
    caps: tuple[int, ...] = ()


TREFOIL_T = Tangle(2, (1, 1, 1), (0,))
WHITEHEAD_T = Tangle(3, (-1, 2, -1, 2, -1), (1,))
BORROMEAN_POS = Tangle(3, (1, -2, 1, -2, 1, -2))

_TANGLES = {"TREFOIL": TREFOIL_T, "WHITEHEAD": WHITEHEAD_T,
            "BORROMEAN": BORROMEAN_POS}


def _commutators(v: int) -> list[tuple[int, int]]:
    """The word of a triple number v != 1 as (letter, exponent) pairs."""
    s, n = (1, v) if v > 0 else (-1, -v)
    p = isqrt(n)
    q, r = divmod(n, p)
    return [(x, k) for i, j in ((p, q), (1, r)) if j
            for x, k in ((s, 2 * i), (2, 2 * j), (-s, 2 * i), (-2, 2 * j))]


def _tangle(gadget) -> Tangle:
    """The tangle spliced for a checked gadget."""
    if gadget[0] != "BORROMEAN" or gadget[2] == 1:
        return _TANGLES[gadget[0]]
    return Tangle(3, tuple(letter for letter, k in _commutators(gadget[2])
                           for _ in range(k)))


# ---------------------------------------------------------------------------
# the slice composer


class _Builder:
    def __init__(self, m: int):
        self.m = m
        self.crossings: list[Crossing] = []
        # Arc c is the seed arc of component c; untouched seeds become
        # free loops, touched ones become the closure point.
        self.arc_comp: dict[int, int] = {c: c for c in range(1, m + 1)}
        self.cur = {c: c for c in range(1, m + 1)}
        self.order = list(range(1, m + 1))  # the rows, top to bottom
        self.next_id = m + 1

    def fresh(self, comp: int) -> int:
        arc = self.next_id
        self.next_id += 1
        self.arc_comp[arc] = comp
        return arc

    def swap(self, p: int):
        """The strands at positions ``p`` and ``p + 1`` (from 0, top
        down) trade places; the lower-numbered one passes over, with
        sign +1 if it was on top and -1 if not."""
        a, b = self.order[p], self.order[p + 1]
        ta, tb = self.fresh(a), self.fresh(b)
        if a < b:
            self.crossings.append(Crossing(1, self.cur[b], tb, self.cur[a], ta))
        else:
            self.crossings.append(Crossing(-1, self.cur[a], ta, self.cur[b], tb))
        self.cur[a], self.cur[b] = ta, tb
        self.order[p], self.order[p + 1] = b, a

    def dive(self, movers: tuple[int, ...]):
        """From home, each mover in turn passes down to the last
        mover's row, the bottom of rows 1..movers[-1]."""
        for s in movers:
            for p in range(self.order.index(s), movers[-1] - 1):
                self.swap(p)

    def goto(self, movers: tuple[int, ...]):
        """Reach the order of a gadget on ``movers`` (home for ``()``)
        by the fewest swaps: lift each row of it into place in turn."""
        for j, s in enumerate(_order(self.m, movers)):
            for p in range(self.order.index(s, j) - 1, j - 1, -1):
                self.swap(p)

    def splice(self, tangle: Tangle, movers: tuple[int, ...]):
        """Run the strands of ``movers`` through ``tangle``, one
        crossing per letter, and join each capped strand to itself."""
        seeds = [self.fresh(movers[slot]) for slot in tangle.caps]
        arcs = [self.cur[c] for c in movers] + seeds
        labels = list(movers) + [movers[slot] for slot in tangle.caps]
        for letter in tangle.word:
            li = abs(letter) - 1
            # a positive letter sends the strand at li + 1 under
            under, over = (li + 1, li) if letter > 0 else (li, li + 1)
            u_out = self.fresh(labels[under])
            o_out = self.fresh(labels[over])
            self.crossings.append(Crossing(1 if letter > 0 else -1,
                                           arcs[under], u_out, arcs[over],
                                           o_out))
            arcs[under], arcs[over] = o_out, u_out
            labels[li], labels[li + 1] = labels[li + 1], labels[li]
        for seed, top_arc in zip(seeds, arcs[len(movers):]):
            if top_arc == seed:
                raise ValueError("capped tangle strand untouched by the word")
            self._rename_output(top_arc, seed)
        for c, arc in zip(movers, arcs):
            self.cur[c] = arc

    def _rename_output(self, old: int, new: int):
        for i in range(len(self.crossings) - 1, -1, -1):
            cr = self.crossings[i]
            if cr.under_out == old:
                self.crossings[i] = Crossing(cr.sign, cr.under_in, new,
                                             cr.over_in, cr.over_out)
                break
            if cr.over_out == old:
                self.crossings[i] = Crossing(cr.sign, cr.under_in,
                                             cr.under_out, cr.over_in, new)
                break
        else:
            raise AssertionError(f"arc {old} has no producing crossing")
        del self.arc_comp[old]

    def finish(self) -> LinkDiagram:
        """Close every row; the result is not yet validated."""
        loops = []
        for c in range(1, self.m + 1):
            if self.cur[c] == c:
                loops.append(c)
                del self.arc_comp[c]
            else:
                # Close the row: its dangling arc is the one that flows
                # back into the seed arc's consumer.
                self._rename_output(self.cur[c], c)
        return LinkDiagram(self.m, tuple(self.crossings), self.arc_comp,
                           tuple(loops))


def _order(m: int, movers: tuple[int, ...]) -> list[int]:
    """The rows, top to bottom, with which a gadget on the sorted
    ``movers`` is spliced; ``()`` gives home."""
    last = movers[-1] if movers else 0
    return ([r for r in range(1, last) if r not in movers] + list(movers)
            + list(range(last + 1, m + 1)))


def _inverted(movers: tuple[int, ...]) -> set[tuple[int, int]]:
    """The pairs of rows that the order of a gadget on ``movers`` puts
    the other way round from home: each mover with each other row
    between it and the last mover.  Two orders are as many adjacent
    swaps apart as the pairs that exactly one of them inverts."""
    return {(x, y) for x in movers for y in range(x + 1, movers[-1])
            if y not in movers}


def _schedule(m: int, gadgets):
    """Check each gadget; yield it with its triple number v (1 for the
    other kinds), its sorted movers and how the rows reach it: ``"dive"``
    for the first multi-strand gadget, ``"swap"`` for later ones, None
    for a one-strand gadget, which is spliced where its strand is."""
    dived = False
    for gadget in gadgets:
        kind, comps = gadget[0], tuple(sorted(gadget[1]))
        if len(set(comps)) != len(comps):
            raise ValueError(f"gadget components must be distinct: {gadget}")
        if any(not 1 <= c <= m for c in comps):
            raise ValueError(f"gadget components out of range 1..{m}: {gadget}")
        v = gadget[2] if kind == "BORROMEAN" else 1
        if type(v) is not int or not v:
            raise ValueError(f"a triple number must be a nonzero int: {gadget}")
        if kind not in _TANGLES:
            raise ValueError(f"unknown gadget kind {kind!r}")
        tangle = _TANGLES[kind]
        if len(comps) != tangle.strands - len(tangle.caps):
            raise ValueError("gadget arity does not match the tangle")
        move = None
        if len(comps) > 1:
            move, dived = "swap" if dived else "dive", True
        yield gadget, v, comps, move


def build_from_gadgets(m: int, gadgets):
    """Compose gadget insertions serially into a validated diagram;
    see the module docstring."""
    b = _Builder(m)
    for gadget, _, movers, move in _schedule(m, gadgets):
        if move == "dive":
            b.dive(movers)
        elif move == "swap":
            b.goto(movers)
        b.splice(_tangle(gadget), movers)
    b.goto(())
    return _check_slots(b.finish())


def stack_crossings(m: int, gadgets) -> int:
    """Crossings of ``build_from_gadgets(m, gadgets)``, counted without
    building anything or writing out any word."""
    n, inverted = 0, set()
    for gadget, v, movers, move in _schedule(m, gadgets):
        if move:
            now = _inverted(movers)
            n += (len(inverted ^ now) if move == "swap" else
                  sum(movers[-1] - c + i for i, c in enumerate(movers)))
            inverted = now
        n += (len(_TANGLES[gadget[0]].word) if v == 1
              else sum(k for _, k in _commutators(v)))
    return n + len(inverted)

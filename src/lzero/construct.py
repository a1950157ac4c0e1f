"""Deterministic diagram builders.

``braid_closure`` turns a braid word into a diagram code.  Letters are
nonzero integers: letter ``+i`` crosses the strand at position ``i``
over the strand at position ``i+1`` with sign +1 (the strands trade
places); ``-i`` sends it under with sign -1.

``build_from_gadgets`` composes a link out of local *gadgets* spliced
serially into an m-component unlink, one slice after another:

* ``("TREFOIL", (i,))``        — connect-sum a trefoil into component i
* ``("WHITEHEAD", (i, j))``    — clasp components i and j (zero linking,
                                 odd double-pair invariant)
* ``("BORROMEAN", (i, j, k), s)`` — thread i, j, k through a Borromean
                                 pattern of handedness s = +1 or -1
* ``("CLASP", (i, j))``        — push a finger of i over a finger of j;
                                 a trivial insertion whose four
                                 crossings form a band-pass site,
                                 returned in the site registry

Components run as horizontal strands, row 1 at the top.  For each
slice the participating components dive into a workspace below row m —
passing over every row they meet and under the workspace strands of
earlier participants, so each pairwise detour contributes one crossing
of each sign and cancels — are spliced through the gadget pattern, and
climb back the same way.  The detours retract, so the built link is
exactly the serial stack of the gadget links, and every detour crossing
has the lower-numbered component on top (which keeps the skein oracle's
walk order violation-free outside the gadget cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Crossing, LinkDiagram, check_valid, component_cycles
from .moves import MoveSite

__all__ = [
    "Tangle",
    "TREFOIL_T",
    "WHITEHEAD_T",
    "BORROMEAN_POS",
    "BORROMEAN_NEG",
    "braid_closure",
    "build_from_gadgets",
    "band_clasp_diagram",
]


# ---------------------------------------------------------------------------
# braid closures


def braid_closure(word, strands: int, name: str = "") -> LinkDiagram:
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

    pos = list(range(1, n + 1))
    crossings: list[Crossing] = []
    for k, letter in enumerate(word):
        u_out = n + 1 + 2 * k
        crossings.append(_braid_crossing(letter, pos, u_out, u_out + 1))

    rename = {pos[p]: p + 1 for p in range(n) if pos[p] != p + 1}
    fixed = []
    for cr in crossings:
        fixed.append(Crossing(cr.sign,
                              cr.under_in, rename.get(cr.under_out, cr.under_out),
                              cr.over_in, rename.get(cr.over_out, cr.over_out)))

    # Each cycle starts at its lowest arc id, which names it.
    provisional = LinkDiagram(1, tuple(fixed),
                              {a: 1 for cr in fixed for a in cr.arcs()})
    items = [(cyc[0], cyc) for cyc in component_cycles(provisional)]
    items += [(p + 1, None) for p in range(n) if pos[p] == p + 1]
    items.sort(key=lambda t: t[0])

    arc_comp = {}
    loops = []
    for comp, (_, cyc) in enumerate(items, start=1):
        if cyc is None:
            loops.append(comp)
        else:
            for a in cyc:
                arc_comp[a] = comp
    return check_valid(LinkDiagram(len(items), tuple(fixed), arc_comp,
                                   tuple(loops), name=name))


def _braid_crossing(letter: int, pos: list, u_out: int,
                    o_out: int) -> Crossing:
    """The crossing of ``letter`` on the strands whose current arcs are
    ``pos``: the under strand leaves on ``u_out``, the over strand on
    ``o_out``, and the two trade places in ``pos``."""
    li = abs(letter) - 1
    under, over = (li + 1, li) if letter > 0 else (li, li + 1)
    cr = Crossing(1 if letter > 0 else -1, pos[under], u_out, pos[over],
                  o_out)
    pos[under], pos[over] = o_out, u_out
    return cr


# ---------------------------------------------------------------------------
# tangle templates


@dataclass(frozen=True)
class Tangle:
    """A braid-word pattern spliced into passing strands.

    ``entry[i]``/``exit[i]`` give the bottom/top braid position wired
    to the i-th participating component; ``joins`` are (bottom, top)
    position pairs closed off inside the gadget; ``comp_slots[p]`` says
    which participant owns the strand starting at bottom position p+1.
    """

    strands: int
    word: tuple[int, ...]
    entry: tuple[int, ...]
    exit: tuple[int, ...]
    joins: tuple[tuple[int, int], ...]
    comp_slots: tuple[int, ...]


TREFOIL_T = Tangle(2, (1, 1, 1), (1,), (1,), ((2, 2),), (0, 0))
WHITEHEAD_T = Tangle(3, (-1, 2, -1, 2, -1), (1, 2), (1, 2), ((3, 3),), (0, 1, 1))
BORROMEAN_POS = Tangle(3, (1, -2, 1, -2, 1, -2), (1, 2, 3), (1, 2, 3), (), (0, 1, 2))
# The triple linking number of the rings is invariant under mirroring
# (the meridian inversion contributes a sign per index, and two indices
# beyond the longitude's own cancel), so the negative-handedness insert
# conjugates the positive pattern by a transposition of the first two
# strands instead: the triple linking number is antisymmetric in any
# two indices, and the swap/unswap pair cancels in every pairwise count.
BORROMEAN_NEG = Tangle(3, (1, 1, -2, 1, -2, 1, -2, -1), (1, 2, 3), (1, 2, 3), (), (0, 1, 2))


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
        self.next_id = m + 1
        self.bp_sites: list[MoveSite] = []

    def fresh(self, comp: int) -> int:
        arc = self.next_id
        self.next_id += 1
        self.arc_comp[arc] = comp
        return arc

    def push(self, cr: Crossing):
        self.crossings.append(cr)

    def cross_over(self, mover: int, other: int, sign: int):
        """Mover's strand passes over the strand of ``other``."""
        no = self.fresh(mover)
        nu = self.fresh(other)
        self.push(Crossing(sign, self.cur[other], nu, self.cur[mover], no))
        self.cur[mover], self.cur[other] = no, nu

    def cross_under(self, mover: int, other: int, sign: int):
        nu = self.fresh(mover)
        no = self.fresh(other)
        self.push(Crossing(sign, self.cur[mover], nu, self.cur[other], no))
        self.cur[mover], self.cur[other] = nu, no

    def dive(self, movers: tuple[int, ...]):
        for idx, s in enumerate(movers):
            for row in range(s + 1, self.m + 1):
                self.cross_over(s, row, 1)
            for e in range(idx):
                self.cross_under(s, movers[e], -1)

    def climb(self, movers: tuple[int, ...]):
        for idx in range(len(movers) - 1, -1, -1):
            s = movers[idx]
            for e in range(idx - 1, -1, -1):
                self.cross_under(s, movers[e], 1)
            for row in range(self.m, s, -1):
                self.cross_over(s, row, -1)

    def splice(self, tangle: Tangle, movers: tuple[int, ...]):
        if len(movers) != len(tangle.entry):
            raise ValueError("gadget arity does not match the tangle")
        n = tangle.strands
        pos_arcs: list[int | None] = [None] * n
        labels: list[int | None] = [None] * n
        for slot, p in enumerate(tangle.entry):
            pos_arcs[p - 1] = self.cur[movers[slot]]
            labels[p - 1] = movers[slot]
        seeds: dict[int, int] = {}
        for bp, _ in tangle.joins:
            comp = movers[tangle.comp_slots[bp - 1]]
            seeds[bp] = self.fresh(comp)
            pos_arcs[bp - 1] = seeds[bp]
            labels[bp - 1] = comp
        if any(a is None for a in pos_arcs):
            raise ValueError("tangle entry/join positions must cover "
                             "every strand")

        for letter in tangle.word:
            li = abs(letter) - 1
            # as in _braid_crossing: a positive letter sends the strand
            # at li + 1 under
            under, over = (li + 1, li) if letter > 0 else (li, li + 1)
            u_out = self.fresh(labels[under])
            o_out = self.fresh(labels[over])
            self.push(_braid_crossing(letter, pos_arcs, u_out, o_out))
            labels[li], labels[li + 1] = labels[li + 1], labels[li]

        for bp, tp in tangle.joins:
            top_arc = pos_arcs[tp - 1]
            if top_arc == seeds[bp]:
                raise ValueError("joined tangle strand untouched by the word")
            self._rename_output(top_arc, seeds[bp])
        for slot, p in enumerate(tangle.exit):
            self.cur[movers[slot]] = pos_arcs[p - 1]

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

    def clasp(self, i: int, j: int):
        """Finger of i passing over a finger of j: four crossings that
        form a registered band-pass site but an isotopically trivial
        insertion.

        The two fingers interleave in a way that cannot sit inside the
        parallel two-strand corridor that ``dive``/``climb`` provide
        (the under strand must meet the cluster's last crossing first),
        so this gadget routes its own detours: i drops to the workspace
        left of the cluster and returns just right of it, and j drops
        and returns entirely to the right of i's path.  Every detour
        crossing keeps the mover on top, as in ``dive``."""
        for r in range(i + 1, self.m + 1):
            self.cross_over(i, r, 1)
        e_i = self.cur[i]
        a1, a2, a3, a4 = (self.fresh(i) for _ in range(4))
        self.cur[i] = a4
        for r in range(self.m, i, -1):
            self.cross_over(i, r, -1)
        for r in range(j + 1, self.m + 1):
            self.cross_over(j, r, 1)
        e_j = self.cur[j]
        b1, b2, b3, b4 = (self.fresh(j) for _ in range(4))
        base = len(self.crossings)
        self.push(Crossing(-1, b1, b2, e_i, a1))
        self.push(Crossing(1, b2, b3, a1, a2))
        self.push(Crossing(-1, b3, b4, a2, a3))
        self.push(Crossing(1, e_j, b1, a3, a4))
        self.cur[j] = b4
        for r in range(self.m, j, -1):
            self.cross_over(j, r, -1)
        self.bp_sites.append(MoveSite(
            "BANDPASS", crossings=(base + 1, base + 2, base + 3, base + 4)))

    def finish(self, name: str) -> LinkDiagram:
        loops = []
        for c in range(1, self.m + 1):
            if self.cur[c] == c:
                loops.append(c)
                del self.arc_comp[c]
            else:
                # Close the component: its dangling arc is the one that
                # flows back into the seed arc's consumer.
                self._rename_output(self.cur[c], c)
        return check_valid(LinkDiagram(self.m, tuple(self.crossings),
                                       self.arc_comp, tuple(loops), name=name))


def build_from_gadgets(m: int, gadgets, name: str = ""):
    """Compose gadget insertions serially; see the module docstring.

    Returns ``(diagram, band_pass_sites)`` where the sites index the
    crossings of every CLASP gadget, ready for ``apply_move``.
    """
    b = _Builder(m)
    for gadget in gadgets:
        kind, comps = gadget[0], tuple(sorted(gadget[1]))
        if len(set(comps)) != len(comps):
            raise ValueError(f"gadget components must be distinct: {gadget}")
        if any(not 1 <= c <= m for c in comps):
            raise ValueError(f"gadget components out of range 1..{m}: {gadget}")
        if kind == "TREFOIL":
            b.dive(comps)
            b.splice(TREFOIL_T, comps)
            b.climb(comps)
        elif kind == "WHITEHEAD":
            b.dive(comps)
            b.splice(WHITEHEAD_T, comps)
            b.climb(comps)
        elif kind == "BORROMEAN":
            sign = gadget[2]
            if sign not in (1, -1):
                raise ValueError(f"borromean handedness must be +-1: {gadget}")
            b.dive(comps)
            b.splice(BORROMEAN_POS if sign > 0 else BORROMEAN_NEG, comps)
            b.climb(comps)
        elif kind == "CLASP":
            b.clasp(*comps)
        else:
            raise ValueError(f"unknown gadget kind {kind!r}")
    return b.finish(name), tuple(b.bp_sites)


def band_clasp_diagram() -> tuple[LinkDiagram, MoveSite]:
    """Two-component unlink with one registered band-pass site."""
    d, sites = build_from_gadgets(2, [("CLASP", (1, 2))], name="clasp-pair")
    return d, sites[0]

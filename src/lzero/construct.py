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
with ``diagram.renumber_components``.

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

For each slice the participating components dive into a workspace below
row m — passing over every row they meet and under the workspace strands
of earlier participants, so each pairwise detour contributes one
crossing of each sign and cancels — are spliced through the gadget
pattern, and climb back the same way.  The detours retract, so the built
link is exactly the serial stack of the gadget links, and every detour
crossing has the lower-numbered component on top (which keeps the skein
oracle's walk order violation-free outside the gadget cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Crossing, LinkDiagram, check_valid, renumber_components
from .moves import MoveSite

__all__ = [
    "Tangle",
    "TREFOIL_T",
    "WHITEHEAD_T",
    "BORROMEAN_POS",
    "BORROMEAN_NEG",
    "braid_closure",
    "build_from_gadgets",
    "gadget_crossings",
    "band_clasp_diagram",
]


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
    b = _Builder(n)
    b.splice(Tangle(n, tuple(word)), tuple(range(1, n + 1)))
    return check_valid(renumber_components(b.finish(name)))


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
# The triple linking number of the rings is invariant under mirroring
# (the meridian inversion contributes a sign per index, and two indices
# beyond the longitude's own cancel), so the negative-handedness insert
# conjugates the positive pattern by a transposition of the first two
# strands instead: the triple linking number is antisymmetric in any
# two indices, and the swap/unswap pair cancels in every pairwise count.
BORROMEAN_NEG = Tangle(3, (1, 1, -2, 1, -2, 1, -2, -1))

_TANGLES = {"TREFOIL": TREFOIL_T, "WHITEHEAD": WHITEHEAD_T,
            ("BORROMEAN", 1): BORROMEAN_POS, ("BORROMEAN", -1): BORROMEAN_NEG}


def _need_arity(movers: tuple[int, ...], arity: int):
    if len(movers) != arity:
        raise ValueError("gadget arity does not match the tangle")


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

    def cross_over(self, mover: int, other: int, sign: int):
        """Mover's strand passes over the strand of ``other``."""
        no = self.fresh(mover)
        nu = self.fresh(other)
        self.crossings.append(
            Crossing(sign, self.cur[other], nu, self.cur[mover], no))
        self.cur[mover], self.cur[other] = no, nu

    def cross_under(self, mover: int, other: int, sign: int):
        nu = self.fresh(mover)
        no = self.fresh(other)
        self.crossings.append(
            Crossing(sign, self.cur[mover], nu, self.cur[other], no))
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
        """Run the strands of ``movers`` through ``tangle``, one
        crossing per letter, and join each capped strand to itself."""
        _need_arity(movers, tangle.strands - len(tangle.caps))
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

    def clasp(self, movers: tuple[int, ...]):
        """Finger of i passing over a finger of j: four crossings that
        form a registered band-pass site but an isotopically trivial
        insertion.

        The two fingers interleave in a way that cannot sit inside the
        parallel two-strand corridor that ``dive``/``climb`` provide
        (the under strand must meet the cluster's last crossing first),
        so each finger takes its own one-mover detour: i drops to the
        workspace left of the cluster and returns just right of it, and
        j drops and returns entirely to the right of i's path."""
        _need_arity(movers, 2)
        i, j = movers
        self.dive((i,))
        e_i = self.cur[i]
        a1, a2, a3, a4 = (self.fresh(i) for _ in range(4))
        self.cur[i] = a4
        self.climb((i,))
        self.dive((j,))
        e_j = self.cur[j]
        b1, b2, b3, b4 = (self.fresh(j) for _ in range(4))
        base = len(self.crossings)
        self.crossings += [Crossing(-1, b1, b2, e_i, a1),
                           Crossing(1, b2, b3, a1, a2),
                           Crossing(-1, b3, b4, a2, a3),
                           Crossing(1, e_j, b1, a3, a4)]
        self.cur[j] = b4
        self.climb((j,))
        self.bp_sites.append(MoveSite(
            "BANDPASS", crossings=(base + 1, base + 2, base + 3, base + 4)))

    def finish(self, name: str) -> LinkDiagram:
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
                           tuple(loops), name=name)


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
        if kind == "CLASP":
            b.clasp(comps)
            continue
        if kind == "BORROMEAN":
            if gadget[2] not in (1, -1):
                raise ValueError(f"borromean handedness must be +-1: {gadget}")
            kind = (kind, gadget[2])
        if kind not in _TANGLES:
            raise ValueError(f"unknown gadget kind {gadget[0]!r}")
        b.dive(comps)
        b.splice(_TANGLES[kind], comps)
        b.climb(comps)
    return check_valid(b.finish(name)), tuple(b.bp_sites)


def gadget_crossings(m: int, gadget) -> int:
    """Crossings a TREFOIL, WHITEHEAD or BORROMEAN ``gadget`` adds to an
    m-component build, counted without building it."""
    kind = (gadget[0], gadget[2]) if gadget[0] == "BORROMEAN" else gadget[0]
    # the k-th mover passes over every row below it and under the k
    # movers before it, once down and once back up
    return len(_TANGLES[kind].word) + sum(
        2 * (m - c + k) for k, c in enumerate(sorted(gadget[1])))


def band_clasp_diagram() -> tuple[LinkDiagram, MoveSite]:
    """Two-component unlink with one registered band-pass site."""
    d, sites = build_from_gadgets(2, [("CLASP", (1, 2))], name="clasp-pair")
    return d, sites[0]

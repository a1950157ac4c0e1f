"""Local rewrites of diagram codes: the three strand-slide moves plus
the band-pass switch.

Every rewrite is specified by a :class:`MoveSite` naming the crossings
and/or arcs it consumes.  ``apply_move`` checks that the named pattern
is actually present (raising :class:`MovePatternError` otherwise) and
returns a new diagram; inputs are never mutated.  Pattern checks are
combinatorial, except that an R2+ slide is refused unless its two
darts lie on one face of the embedding encoded by the crossing signs
(see ``_R2_SHAPE``); any other choice would leave a non-planar code.
``enumerate_sites`` only offers sites certified against that face
structure.

A :class:`MoveSite` is a :class:`typing.NamedTuple`: immutable,
hashable, and equal to the plain tuple of its fields.

Site kinds and their parameters:

======== ==========================================================
R1+      arcs=(a,), sign, variant 'under'|'over' (which slot the
         strand hits first when the kink is inserted on arc a)
R1-      crossings=(c,) where c is a kink crossing
R2+      arcs=(x, y), sign, variant 'par'|'anti'; x slides over y
R2-      crossings=(c, d) bounding a bigon, opposite signs
R3       crossings=(c, d, e) at the corners of a transitively
         stacked triangle
BANDPASS crossings=(c1, c2, c3, c4): two anti-parallel bands, the
         over band's strands run c1->c2 and c3->c4, the under
         band's run c2->c3 and c4->c1; all four are switched
======== ==========================================================
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .diagram import (Crossing, LinkDiagram, _darts, _orbits, bigon_fusions,
                      check_valid, consumer_map, delete_crossings,
                      face_through, faces, kink_fusion)
from .errors import DiagramParseError, MovePatternError

__all__ = ["MoveSite", "apply_move", "parse_site", "render_site",
           "enumerate_sites"]


class MoveSite(NamedTuple):
    """Where and how to rewrite; field relevance depends on ``kind``."""

    kind: str
    crossings: tuple[int, ...] = ()
    arcs: tuple[int, ...] = ()
    sign: int = 0
    variant: str = ""


def render_site(site: MoveSite) -> str:
    kind, crossings, arcs, sign, variant = site
    if not crossings and sign and variant and 0 < len(arcs) < 3:
        # the shape of every R1+ and R2+ site, formatted in one go
        pair = f"{arcs[0]},{arcs[1]}" if len(arcs) == 2 else arcs[0]
        return f"{kind} arcs={pair} sign={'+' if sign > 0 else '-'} variant={variant}"
    return "".join((
        kind,
        " crossings=" + ",".join(map(str, crossings)) if crossings else "",
        " arcs=" + ",".join(map(str, arcs)) if arcs else "",
        (" sign=+" if sign > 0 else " sign=-") if sign else "",
        " variant=" + variant if variant else ""))


def parse_site(text: str) -> MoveSite:
    """Parse the ``render_site`` format; raises DiagramParseError."""
    parts = text.split()
    if not parts:
        raise DiagramParseError("empty move site")
    kind = parts[0]
    if kind not in KINDS:
        raise DiagramParseError(
            f"unknown move kind {kind!r}; expected one of {', '.join(KINDS)}")
    crossings: tuple[int, ...] = ()
    arcs: tuple[int, ...] = ()
    sign = 0
    variant = ""
    for tok in parts[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise DiagramParseError(f"expected key=value, got {tok!r}")
        if key in ("crossings", "arcs"):
            try:
                ids = tuple(int(x) for x in val.split(","))
            except ValueError:
                raise DiagramParseError(f"bad id list {val!r} for {key}") from None
            if any(i < 1 for i in ids):
                raise DiagramParseError(f"ids must be positive in {tok!r}")
            if key == "crossings":
                crossings = ids
            else:
                arcs = ids
        elif key == "sign":
            if val not in ("+", "-"):
                raise DiagramParseError(f"sign must be '+' or '-', got {val!r}")
            sign = 1 if val == "+" else -1
        elif key == "variant":
            variant = val
        else:
            raise DiagramParseError(f"unknown site field {key!r}")
    return MoveSite(kind, crossings, arcs, sign, variant)


# ---------------------------------------------------------------------------
# applying moves


def apply_move(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    """Rewrite ``d`` at ``site``; the result is re-validated before return."""
    rewrite, _ = _kind(site.kind)
    return check_valid(rewrite(d, site))


def _kind(kind: str):
    """The (rewrite, site finder) pair of ``kind``."""
    _need(kind in _KINDS, f"unknown move kind {kind!r}")
    return _KINDS[kind]


def _need(cond, msg):
    if not cond:
        raise MovePatternError(msg)


def _fresh_arcs(d: LinkDiagram, n: int) -> list[int]:
    base = d.max_arc()
    return [base + i for i in range(1, n + 1)]


def _crossing_at(d: LinkDiagram, cid: int) -> Crossing:
    _need(1 <= cid <= len(d.crossings),
          f"no crossing {cid}; diagram has {len(d.crossings)}")
    return d.crossings[cid - 1]


def _with_consumer_rewired(crossings, old_arc, new_arc):
    """Replace the single input slot consuming ``old_arc``."""
    out = []
    done = False
    for cr in crossings:
        if not done and cr.under_in == old_arc:
            cr = Crossing(cr.sign, new_arc, cr.under_out, cr.over_in, cr.over_out)
            done = True
        elif not done and cr.over_in == old_arc:
            cr = Crossing(cr.sign, cr.under_in, cr.under_out, new_arc, cr.over_out)
            done = True
        out.append(cr)
    return out, done


def _r1_add(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.arcs) == 1, "R1+ needs exactly one arc")
    _need(site.sign in (1, -1), "R1+ needs sign=+ or sign=-")
    _need(site.variant in ("under", "over"),
          "R1+ needs variant=under or variant=over")
    a = site.arcs[0]
    _need(a in d.arc_components, f"no arc {a} in the diagram")
    n1, n2 = _fresh_arcs(d, 2)
    # The strand arrives on a, threads the new crossing twice, and
    # leaves on n2 toward a's old consumer.
    if site.variant == "under":
        kink = Crossing(site.sign, a, n1, n1, n2)
    else:
        kink = Crossing(site.sign, n1, n2, a, n1)
    crossings, done = _with_consumer_rewired(d.crossings, a, n2)
    _need(done, f"arc {a} has no consuming crossing")
    comp = d.arc_components[a]
    arc_comp = dict(d.arc_components)
    arc_comp[n1] = comp
    arc_comp[n2] = comp
    return LinkDiagram(d.m, tuple(crossings) + (kink,), arc_comp,
                       d.free_loops, name=d.name)


def _r1_remove(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.crossings) == 1, "R1- needs exactly one crossing")
    cid = site.crossings[0]
    fusion = kink_fusion(_crossing_at(d, cid))
    _need(fusion is not None, f"crossing {cid} is not a kink")
    return delete_crossings(d, {cid - 1}, [fusion])


def _r2_add(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.arcs) == 2 and site.arcs[0] != site.arcs[1],
          "R2+ needs two distinct arcs")
    _need(site.sign in (1, -1), "R2+ needs sign=+ or sign=-")
    _need(site.variant in ("par", "anti"), "R2+ needs variant=par or variant=anti")
    x, y = site.arcs
    for a in (x, y):
        _need(a in d.arc_components, f"no arc {a} in the diagram")
    fx, fy = _R2_DARTS[site.sign, site.variant]
    _need((y, fy) in face_through(d, (x, fx)),
          f"arcs {x} and {y} do not bound one face in the directions this "
          "sign and variant need; the slide would not be planar")
    n1, n2, n3, n4 = _fresh_arcs(d, 4)
    s = site.sign
    if site.variant == "par":
        # x over both, y under both, y in the same direction: x hits
        # c1 then c2, and so does y.
        c1 = Crossing(s, y, n3, x, n1)
        c2 = Crossing(-s, n3, n4, n1, n2)
    else:
        # y runs against x: y hits c2 first, then c1.
        c1 = Crossing(s, n3, n4, x, n1)
        c2 = Crossing(-s, y, n3, n1, n2)
    crossings, ok_x = _with_consumer_rewired(d.crossings, x, n2)
    crossings, ok_y = _with_consumer_rewired(crossings, y, n4)
    _need(ok_x and ok_y, "both arcs must have consuming crossings")
    arc_comp = dict(d.arc_components)
    arc_comp[n1] = arc_comp[n2] = d.arc_components[x]
    arc_comp[n3] = arc_comp[n4] = d.arc_components[y]
    return LinkDiagram(d.m, tuple(crossings) + (c1, c2), arc_comp,
                       d.free_loops, name=d.name)


def _r2_remove(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.crossings) == 2 and site.crossings[0] != site.crossings[1],
          "R2- needs two distinct crossings")
    i, j = site.crossings
    a, b = _crossing_at(d, i), _crossing_at(d, j)
    if b.over_out == a.over_in:
        i, j = j, i
        a, b = b, a
    _need(a.over_out == b.over_in,
          f"crossings {i} and {j} do not share an over arc")
    _need(a.sign == -b.sign,
          f"crossings {i} and {j} have equal signs; not a bigon pair")
    fusions = bigon_fusions(a, b)
    _need(fusions is not None,
          f"crossings {i} and {j} do not share an under arc")
    return delete_crossings(d, {i - 1, j - 1}, fusions)


def _r3(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.crossings) == 3 and len(set(site.crossings)) == 3,
          "R3 needs three distinct crossings")
    # (crossing, level) -> (in arc, out arc) of the strand passing there
    ends = {}
    for cid in site.crossings:
        cr = _crossing_at(d, cid)
        ends[cid, "under"] = (cr.under_in, cr.under_out)
        ends[cid, "over"] = (cr.over_in, cr.over_out)

    # Triangle sides: arcs leaving one of the trio into another, each
    # with its passage (from, to).  Exactly one per unordered pair.
    into = {ins: key for key, (ins, _) in ends.items()}
    sides = {out: (key, into[out]) for key, (_, out) in ends.items()
             if out in into and into[out][0] != key[0]}
    pairs = {frozenset((p[0], c[0])) for p, c in sides.values()}
    _need(len(sides) == 3 and len(pairs) == 3,
          "the three crossings do not bound a triangle")

    # Reject a single strand threading through a corner (same-level
    # in/out shared slots), which would make two sides collinear.
    for (cid, _), (ins, out) in ends.items():
        _need(not (ins in sides and out in sides),
              f"a strand runs straight through crossing {cid}; "
              "not a triangle")

    # One strand passage per side; levels give the stacking order.
    over_counts = sorted((p[1] == "over") + (c[1] == "over")
                         for p, c in sides.values())
    _need(over_counts == [0, 1, 2],
          "the three strands are cyclically stacked; the triangle cannot "
          "be slid")

    # Slide: each strand swaps its (in, out) slot pairs between its two
    # crossings, keeping its level at each crossing and every sign.
    slid = dict(ends)
    for p, c in sides.values():
        slid[p], slid[c] = ends[c], ends[p]
    crossings = list(d.crossings)
    for cid in site.crossings:
        crossings[cid - 1] = Crossing(crossings[cid - 1].sign,
                                      *slid[cid, "under"], *slid[cid, "over"])
    return LinkDiagram(d.m, tuple(crossings), d.arc_components,
                       d.free_loops, name=d.name)


def _band_pass(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.crossings) == 4 and len(set(site.crossings)) == 4,
          "BANDPASS needs four distinct crossings")
    c1, c2, c3, c4 = (_crossing_at(d, cid) for cid in site.crossings)
    _need(c1.over_out == c2.over_in and c3.over_out == c4.over_in,
          "over strands must run first->second and third->fourth")
    _need(c2.under_out == c3.under_in and c4.under_out == c1.under_in,
          "under strands must run second->third and fourth->first")
    s = c1.sign
    _need((c1.sign, c2.sign, c3.sign, c4.sign) == (s, -s, s, -s),
          "signs must alternate around the pass (anti-parallel bands)")
    over_comps = {d.arc_components[c.over_in] for c in (c1, c2, c3, c4)}
    under_comps = {d.arc_components[c.under_in] for c in (c1, c2, c3, c4)}
    _need(len(over_comps) == 1, "the over band must lie on one component")
    _need(len(under_comps) == 1, "the under band must lie on one component")
    crossings = list(d.crossings)
    for cid in site.crossings:
        crossings[cid - 1] = crossings[cid - 1].switched()
    return LinkDiagram(d.m, tuple(crossings), d.arc_components,
                       d.free_loops, name=d.name)


# ---------------------------------------------------------------------------
# site discovery (used by the randomized equivalence drivers)


def enumerate_sites(d: LinkDiagram, kind: str) -> list[MoveSite]:
    """All sites of ``kind`` certified against the sign-derived faces.

    R1+ sites are offered on every arc in all four (sign, variant)
    shapes; those are always realizable.  R2+ sites are read off faces:
    two darts on a common face can be slid across each other, with the
    variant and leading sign fixed by the darts' directions.
    ``apply_move`` refuses every other R2+ choice, so the R2+ sites it
    accepts are exactly these.  R1- sites are the curls, each of which
    bounds a 1-gon face; R2- and R3 sites are 2- and 3-gon faces that
    match the pattern.  BANDPASS sites are pure pattern matches (the
    pass pattern already pins the local picture).
    """
    _, finder = _kind(kind)
    return finder(d)


# The R1+ and R2+ finders list thousands of sites per diagram, so they
# build each one with tuple.__new__, skipping the NamedTuple's Python
# __new__ and its defaults.
_new = tuple.__new__


def _r1_add_sites(d: LinkDiagram) -> list[MoveSite]:
    return [_new(MoveSite, ("R1+", (), (a,), s, v))
            for a in sorted(d.arc_components)
            for s in (1, -1) for v in ("under", "over")]


def _r1_remove_sites(d: LinkDiagram) -> list[MoveSite]:
    return [MoveSite("R1-", crossings=(cid,))
            for cid, cr in enumerate(d.crossings, start=1)
            if kink_fusion(cr) is not None]


# Two darts bounding a common face with the region on their left can be
# pushed together: x slides over y for any ordered pair of darts on
# distinct arcs of one face.  The darts' directions (x forward, y
# forward) decide par/anti and the sign of the crossing the over strand
# meets first; the table was fixed against the face tracer conventions
# once and is exercised by the invariance suite.  ``_r2_add`` reads it
# backwards to refuse any other choice.
_R2_SHAPE = {
    (True, True): (-1, "anti"),
    (False, False): (1, "anti"),
    (True, False): (1, "par"),
    (False, True): (-1, "par"),
}
_R2_DARTS = {shape: darts for darts, shape in _R2_SHAPE.items()}


def _r2_add_sites(d: LinkDiagram) -> list[MoveSite]:
    # Each dart lies on one face, so no (arcs, variant, sign) repeats.
    return [_new(MoveSite, ("R2+", (), (ax, ay)) + _R2_SHAPE[fx, fy])
            for face in faces(d)
            for (ax, fx), (ay, fy) in itertools.permutations(face, 2)
            if ax != ay]


def _polygons(d: LinkDiagram, k: int) -> list[tuple[int, ...]]:
    """The faces with k sides at k distinct crossings, each as its
    sorted crossing ids; sorted."""
    _, nxt, order = _darts(d)
    found = set()
    for face in _orbits(nxt, order):
        if len(face) == k:
            corners = {(p >> 2) + 1 for p in face}
            if len(corners) == k:
                found.add(tuple(sorted(corners)))
    return sorted(found)


def _r2_remove_sites(d: LinkDiagram) -> list[MoveSite]:
    sites = []
    for i, j in _polygons(d, 2):
        a, b = d.crossings[i - 1], d.crossings[j - 1]
        if b.over_out == a.over_in:
            a, b = b, a
        if a.over_out == b.over_in and bigon_fusions(a, b) is not None:
            sites.append(MoveSite("R2-", crossings=(i, j)))
    return sites


def _accepted(d: LinkDiagram, rewrite, sites) -> list[MoveSite]:
    """The sites whose pattern ``rewrite`` accepts on ``d``."""
    kept = []
    for site in sites:
        try:
            rewrite(d, site)
        except MovePatternError:
            continue
        kept.append(site)
    return kept


def _r3_sites(d: LinkDiagram) -> list[MoveSite]:
    return _accepted(d, _r3, [MoveSite("R3", crossings=tri)
                              for tri in _polygons(d, 3)])


def _band_pass_sites(d: LinkDiagram) -> list[MoveSite]:
    # Follow the over, under and over strands out of each crossing;
    # _band_pass checks the closing under step and distinctness.
    cons = consumer_map(d)
    chains = []
    for i, c1 in enumerate(d.crossings, start=1):
        chain, arc = [i], c1.over_out
        for level in ("over", "under", "over"):
            idx, at = cons[arc]
            if at != level:
                break
            chain.append(idx + 1)
            cr = d.crossings[idx]
            arc = cr.under_out if level == "over" else cr.over_out
        else:
            chains.append(MoveSite("BANDPASS", crossings=tuple(chain)))
    return _accepted(d, _band_pass, chains)


# ---------------------------------------------------------------------------
# the kind table: each kind's rewrite and site finder, in the public order

_KINDS = {
    "R1+": (_r1_add, _r1_add_sites),
    "R1-": (_r1_remove, _r1_remove_sites),
    "R2+": (_r2_add, _r2_add_sites),
    "R2-": (_r2_remove, _r2_remove_sites),
    "R3": (_r3, _r3_sites),
    "BANDPASS": (_band_pass, _band_pass_sites),
}
KINDS = tuple(_KINDS)

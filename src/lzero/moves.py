"""Local rewrites of diagram codes: the three strand-slide moves plus
the band-pass switch.

Every rewrite is specified by a :class:`MoveSite` naming the crossings
and/or arcs it consumes.  ``apply_move`` checks that the named pattern
is actually present (raising :class:`MovePatternError` otherwise) and
returns a new diagram; inputs are never mutated.  Pattern checks are
combinatorial, except that an R2+ slide is refused unless its two
darts lie on one face of the embedding encoded by the crossing signs
(see ``_R2_SHAPE``), and an R3 slide unless its triangle is a face;
any other choice would leave a non-planar code.  Each is one face
walk: R2+ from one dart through the whole diagram's arc ends, R3
through the three site crossings' own slots.  A rewrite returns a
patch, the crossings it takes out and puts in, and ``diagram`` builds
and certifies the result from that patch alone, so a move costs time
in proportion to the move plus a copy of the crossing tuple and arc
map.  ``enumerate_sites`` only offers sites certified against the face
structure, and tests a candidate with the same pattern matcher
``apply_move`` runs, without building the rewritten diagram.

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

from .diagram import (Crossing, LinkDiagram, _bypassed, _is_face, _patched,
                      _rethreaded, _triangles, bigons, check_valid,
                      consumer_map, face_through, faces, is_bigon, is_curl)
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
    seen = set()
    for tok in parts[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise DiagramParseError(f"expected key=value, got {tok!r}")
        if key in seen:
            raise DiagramParseError(f"duplicate site field {key!r}")
        seen.add(key)
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
    """Rewrite ``d``, gated by ``check_valid``, at ``site``.  Each
    rewrite returns a patch, which ``diagram`` applies and certifies
    by the crossings it took out and put in (every rewrite keeps a
    planar code planar)."""
    rewrite, _ = _kind(site.kind)
    return _patched(d, *rewrite(check_valid(d), site))


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


def _crossing_at(d: LinkDiagram, cid) -> Crossing:
    _need(type(cid) is int, f"crossing ids must be integers, got {cid!r}")
    _need(1 <= cid <= len(d.crossings),
          f"no crossing {cid}; diagram has {len(d.crossings)}")
    return d.crossings[cid - 1]


def _signed(site: MoveSite) -> bool:
    """Whether the site's sign is the int +1 or -1 (a bool is not)."""
    return type(site.sign) is int and site.sign in (1, -1)


def _inserted(d: LinkDiagram, added: tuple[Crossing, ...], threads):
    """The patch that appends the crossings ``added``.  Each ``(old
    arc, new arcs)`` in ``threads`` runs on through its new arcs, which
    join the old arc's component, and the last of them takes over the
    old arc's consumer, which every arc of a valid diagram has."""
    put = _rethreaded(d, {old: new[-1] for old, new in threads})
    n = len(d.crossings)
    put.update(zip(range(n, n + len(added)), added))
    return (), put, {a: d.arc_components[old] for old, new in threads for a in new}


def _r1_add(d: LinkDiagram, site: MoveSite):
    _need(len(site.arcs) == 1, "R1+ needs exactly one arc")
    _need(_signed(site), "R1+ needs sign=+ or sign=-")
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
    return _inserted(d, (kink,), [(a, (n1, n2))])


def _removed(d: LinkDiagram, kill: set[int]):
    """The patch of :func:`diagram.delete_crossings`; the free loops it
    leaves are the strands that close inside the killed crossings."""
    return kill, _bypassed(d, kill)[0], {}


def _r1_remove(d: LinkDiagram, site: MoveSite):
    _need(len(site.crossings) == 1, "R1- needs exactly one crossing")
    cid = site.crossings[0]
    _need(is_curl(_crossing_at(d, cid)), f"crossing {cid} is not a kink")
    return _removed(d, {cid - 1})


def _r2_add(d: LinkDiagram, site: MoveSite):
    _need(len(site.arcs) == 2 and site.arcs[0] != site.arcs[1],
          "R2+ needs two distinct arcs")
    _need(_signed(site), "R2+ needs sign=+ or sign=-")
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
    return _inserted(d, (c1, c2), [(x, (n1, n2)), (y, (n3, n4))])


def _r2_remove(d: LinkDiagram, site: MoveSite):
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
    _need(is_bigon(a, b), f"crossings {i} and {j} do not share an under arc")
    return _removed(d, {i - 1, j - 1})


def _r3(d: LinkDiagram, site: MoveSite):
    ends, sides = _r3_match(d, site)
    _need(_is_face(d, site.crossings),
          "the triangle is not a face; the slide would not be planar")
    # Slide: each strand swaps its (in, out) slot pairs between its two
    # crossings, keeping its level at each crossing and every sign.
    slid = dict(ends)
    for p, c in sides.values():
        slid[p], slid[c] = ends[c], ends[p]
    return (), {cid - 1: Crossing(d.crossings[cid - 1].sign, *slid[cid, "under"],
                                  *slid[cid, "over"])
                for cid in site.crossings}, {}


def _r3_match(d: LinkDiagram, site: MoveSite):
    """The strand pattern of an R3 site, as ``(ends, sides)``: each
    corner passage's (in, out) arcs, and each side arc's two passages."""
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
    return ends, sides


def _band_pass(d: LinkDiagram, site: MoveSite):
    _band_pass_match(d, site)
    return (), {cid - 1: d.crossings[cid - 1].switched()
                for cid in site.crossings}, {}


def _band_pass_match(d: LinkDiagram, site: MoveSite) -> None:
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


# ---------------------------------------------------------------------------
# site discovery (used by the randomized equivalence drivers)


def enumerate_sites(d: LinkDiagram, kind: str) -> list[MoveSite]:
    """All sites of ``kind`` certified against the sign-derived faces.

    R1+ sites are offered on every arc in all four (sign, variant)
    shapes; those are always realizable.  R2+ sites are read off faces:
    two darts on a common face can be slid across each other, with the
    variant and leading sign fixed by the darts' directions.
    ``apply_move`` refuses every other R2+ choice, so the R2+ sites it
    accepts are exactly these.  R1- sites are the curls, R2- sites the
    pairs of ``diagram.bigons`` and R3 sites the triangles that match
    the pattern: 1-, 2- and 3-gon faces.  BANDPASS sites are pure
    pattern matches (the pass pattern already pins the local picture).
    """
    _, finder = _kind(kind)
    return finder(check_valid(d))


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
            if is_curl(cr)]


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


def _r2_remove_sites(d: LinkDiagram) -> list[MoveSite]:
    pairs = {(min(i, j) + 1, max(i, j) + 1) for i, j in bigons(d)}
    return [MoveSite("R2-", crossings=pair) for pair in sorted(pairs)]


def _accepted(d: LinkDiagram, match, sites) -> list[MoveSite]:
    """The sites whose pattern ``match`` accepts on ``d``."""
    kept = []
    for site in sites:
        try:
            match(d, site)
        except MovePatternError:
            continue
        kept.append(site)
    return kept


def _r3_sites(d: LinkDiagram) -> list[MoveSite]:
    # the candidates are faces already, so only the pattern is checked
    return _accepted(d, _r3_match, [MoveSite("R3", crossings=tri)
                                    for tri in _triangles(d)])


def _band_pass_sites(d: LinkDiagram) -> list[MoveSite]:
    # Follow the over, under and over strands out of each crossing;
    # the matcher checks the closing under step and distinctness.
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
    return _accepted(d, _band_pass_match, chains)


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

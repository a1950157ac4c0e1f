"""Local rewrites of diagram codes: the three strand-slide moves plus
the band-pass switch.

Every rewrite is specified by a :class:`MoveSite` naming the crossings
and/or arcs it consumes.  ``apply_move`` checks that the named pattern
is actually present (raising :class:`MovePatternError` otherwise) and
returns a new diagram; inputs are never mutated.  Pattern checks are
purely combinatorial — whether a site is compatible with some planar
embedding is the caller's business, and ``enumerate_sites`` only offers
sites certified against the face structure of the embedding encoded by
the crossing signs.

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
from dataclasses import dataclass

from .diagram import (Crossing, LinkDiagram, check_valid, consumer_map,
                      delete_crossings, faces, producer_map)
from .errors import DiagramParseError, MovePatternError

__all__ = ["MoveSite", "apply_move", "parse_site", "render_site",
           "enumerate_sites"]

KINDS = ("R1+", "R1-", "R2+", "R2-", "R3", "BANDPASS")


@dataclass(frozen=True)
class MoveSite:
    """Where and how to rewrite; field relevance depends on ``kind``."""

    kind: str
    crossings: tuple[int, ...] = ()
    arcs: tuple[int, ...] = ()
    sign: int = 0
    variant: str = ""


def render_site(site: MoveSite) -> str:
    parts = [site.kind]
    if site.crossings:
        parts.append("crossings=" + ",".join(str(c) for c in site.crossings))
    if site.arcs:
        parts.append("arcs=" + ",".join(str(a) for a in site.arcs))
    if site.sign:
        parts.append("sign=" + ("+" if site.sign > 0 else "-"))
    if site.variant:
        parts.append("variant=" + site.variant)
    return " ".join(parts)


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
    handlers = {
        "R1+": _r1_add, "R1-": _r1_remove,
        "R2+": _r2_add, "R2-": _r2_remove,
        "R3": _r3, "BANDPASS": _band_pass,
    }
    if site.kind not in handlers:
        raise MovePatternError(f"unknown move kind {site.kind!r}")
    return check_valid(handlers[site.kind](d, site))


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
    comp = d.arc_components[a]
    arc_comp = dict(d.arc_components)
    arc_comp[n1] = comp
    arc_comp[n2] = comp
    loops = d.free_loops
    if not done:
        # a was a free-loop stand-in?  Arcs only exist on crossings, so
        # a consumer always exists for a valid diagram.
        raise MovePatternError(f"arc {a} has no consuming crossing")
    return LinkDiagram(d.m, tuple(crossings) + (kink,), arc_comp, loops,
                       name=d.name)


def _r1_remove(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.crossings) == 1, "R1- needs exactly one crossing")
    cid = site.crossings[0]
    cr = _crossing_at(d, cid)
    if cr.under_out == cr.over_in:
        fusion = (cr.under_in, cr.over_out)
    elif cr.over_out == cr.under_in:
        fusion = (cr.over_in, cr.under_out)
    else:
        raise MovePatternError(f"crossing {cid} is not a kink")
    return delete_crossings(d, {cid - 1}, [fusion])


def _r2_add(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.arcs) == 2 and site.arcs[0] != site.arcs[1],
          "R2+ needs two distinct arcs")
    _need(site.sign in (1, -1), "R2+ needs sign=+ or sign=-")
    _need(site.variant in ("par", "anti"), "R2+ needs variant=par or variant=anti")
    x, y = site.arcs
    for a in (x, y):
        _need(a in d.arc_components, f"no arc {a} in the diagram")
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
    if a.under_out == b.under_in:
        under_fusion = (a.under_in, b.under_out)
    elif b.under_out == a.under_in:
        under_fusion = (b.under_in, a.under_out)
    else:
        raise MovePatternError(
            f"crossings {i} and {j} do not share an under arc")
    fusions = [(a.over_in, b.over_out), under_fusion]
    return delete_crossings(d, {i - 1, j - 1}, fusions)


def _r3(d: LinkDiagram, site: MoveSite) -> LinkDiagram:
    _need(len(site.crossings) == 3 and len(set(site.crossings)) == 3,
          "R3 needs three distinct crossings")
    ids = site.crossings
    crs = {cid: _crossing_at(d, cid) for cid in ids}

    # Triangle sides: arcs produced by one of the trio and consumed by
    # another.  Exactly one per unordered pair.
    def slots(cr):
        return {"under_in": cr.under_in, "under_out": cr.under_out,
                "over_in": cr.over_in, "over_out": cr.over_out}

    produced = {}
    consumed = {}
    for cid, cr in crs.items():
        produced[cr.under_out] = (cid, "under")
        produced[cr.over_out] = (cid, "over")
        consumed[cr.under_in] = (cid, "under")
        consumed[cr.over_in] = (cid, "over")
    sides = {}
    for arc in set(produced) & set(consumed):
        if produced[arc][0] != consumed[arc][0]:
            sides[arc] = (produced[arc], consumed[arc])
    pairs = {frozenset((p[0], c[0])) for p, c in sides.values()}
    _need(len(sides) == 3 and len(pairs) == 3,
          "the three crossings do not bound a triangle")

    # Reject a single strand threading through a corner (same-level
    # in/out shared slots), which would make two sides collinear.
    for cid, cr in crs.items():
        for level in ("under", "over"):
            ins = getattr(cr, level + "_in")
            outs = getattr(cr, level + "_out")
            _need(not (ins in sides and outs in sides),
                  f"a strand runs straight through crossing {cid}; "
                  "not a triangle")

    # One strand passage per side; levels give the stacking order.
    passages = []
    for arc, ((cp, lp), (cc, lc)) in sorted(sides.items()):
        passages.append(((cp, lp), (cc, lc)))
    over_counts = sorted(
        (lp == "over") + (lc == "over") for (_, lp), (_, lc) in passages)
    _need(over_counts == [0, 1, 2],
          "the three strands are cyclically stacked; the triangle cannot "
          "be slid")

    # Slide: each strand swaps its (in, out) slot pairs between its two
    # crossings, keeping its level at each crossing and every sign.
    new_slots = {cid: slots(cr) for cid, cr in crs.items()}
    for (cp, lp), (cc, lc) in passages:
        first = (crs[cp].arcs()[0:2] if lp == "under"
                 else crs[cp].arcs()[2:4])
        second = (crs[cc].arcs()[0:2] if lc == "under"
                  else crs[cc].arcs()[2:4])
        new_slots[cp][lp + "_in"], new_slots[cp][lp + "_out"] = second
        new_slots[cc][lc + "_in"], new_slots[cc][lc + "_out"] = first

    crossings = list(d.crossings)
    for cid, sl in new_slots.items():
        crossings[cid - 1] = Crossing(crs[cid].sign, sl["under_in"],
                                      sl["under_out"], sl["over_in"],
                                      sl["over_out"])
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
    variant and leading sign fixed by the darts' directions.  R1-, R2-
    and R3 sites are pattern matches additionally required to bound an
    actual 1-, 2- or 3-gon face.  BANDPASS sites are pure pattern
    matches (the pass pattern already pins the local picture).
    """
    if kind == "R1+":
        return [MoveSite("R1+", arcs=(a,), sign=s, variant=v)
                for a in sorted(d.arc_components)
                for s in (1, -1) for v in ("under", "over")]
    if kind == "R2+":
        return _r2_add_sites(d)
    if kind == "R1-":
        out = []
        for cid, cr in enumerate(d.crossings, start=1):
            if cr.under_out == cr.over_in or cr.over_out == cr.under_in:
                out.append(MoveSite("R1-", crossings=(cid,)))
        return out
    if kind == "R2-":
        return _r2_remove_sites(d)
    if kind == "R3":
        return _r3_sites(d)
    if kind == "BANDPASS":
        return _band_pass_sites(d)
    raise MovePatternError(f"unknown move kind {kind!r}")


def _face_corners(d: LinkDiagram, face):
    """Crossing id entered by each dart of the face, in face order."""
    cons = consumer_map(d)
    prod = producer_map(d)
    corners = []
    for arc, fwd in face:
        idx, _ = cons[arc] if fwd else prod[arc]
        corners.append(idx + 1)
    return corners


def _r2_add_sites(d: LinkDiagram) -> list[MoveSite]:
    # Two darts bounding a common face with the region on their left
    # can be pushed together.  Walking the face, a dart traverses each
    # boundary arc; the slide is x over y for any ordered pair of darts
    # on distinct arcs.  Direction agreement decides par/anti, and the
    # sign of the crossing the over strand meets first is forced by the
    # local picture; both choices below were fixed against the face
    # tracer conventions once and are exercised by the invariance
    # suite.
    sites = []
    seen = set()
    for face in faces(d):
        for (ax, fx), (ay, fy) in itertools.permutations(face, 2):
            if ax == ay:
                continue
            if fx and fy:
                variant, s = "anti", -1
            elif not fx and not fy:
                variant, s = "anti", 1
            elif fx and not fy:
                variant, s = "par", 1
            else:
                variant, s = "par", -1
            key = (ax, ay, variant, s)
            if key in seen:
                continue
            seen.add(key)
            sites.append(MoveSite("R2+", arcs=(ax, ay), sign=s, variant=variant))
    return sites


def _r2_remove_sites(d: LinkDiagram) -> list[MoveSite]:
    bigons = set()
    for face in faces(d):
        if len(face) == 2:
            corners = _face_corners(d, face)
            if len(set(corners)) == 2:
                bigons.add(frozenset(corners))
    sites = []
    for pair in sorted(map(sorted, bigons)):
        i, j = pair
        a, b = d.crossings[i - 1], d.crossings[j - 1]
        if a.sign != -b.sign:
            continue
        shared_over = a.over_out == b.over_in or b.over_out == a.over_in
        shared_under = (a.under_out == b.under_in or b.under_out == a.under_in)
        if shared_over and shared_under:
            sites.append(MoveSite("R2-", crossings=(i, j)))
    return sites


def _r3_sites(d: LinkDiagram) -> list[MoveSite]:
    triangles = set()
    for face in faces(d):
        if len(face) == 3:
            corners = _face_corners(d, face)
            if len(set(corners)) == 3:
                triangles.add(tuple(sorted(corners)))
    sites = []
    for tri in sorted(triangles):
        site = MoveSite("R3", crossings=tri)
        try:
            apply_move(d, site)
        except MovePatternError:
            continue
        sites.append(site)
    return sites


def _band_pass_sites(d: LinkDiagram) -> list[MoveSite]:
    cons = consumer_map(d)
    sites = []
    for i, c1 in enumerate(d.crossings, start=1):
        nxt_over = cons.get(c1.over_out)
        if nxt_over is None or nxt_over[1] != "over":
            continue
        j = nxt_over[0] + 1
        c2 = d.crossings[j - 1]
        nxt_under = cons.get(c2.under_out)
        if nxt_under is None or nxt_under[1] != "under":
            continue
        k = nxt_under[0] + 1
        c3 = d.crossings[k - 1]
        nxt_over2 = cons.get(c3.over_out)
        if nxt_over2 is None or nxt_over2[1] != "over":
            continue
        l = nxt_over2[0] + 1
        c4 = d.crossings[l - 1]
        if cons.get(c4.under_out) != (i - 1, "under"):
            continue
        site = MoveSite("BANDPASS", crossings=(i, j, k, l))
        if len({i, j, k, l}) != 4:
            continue
        try:
            apply_move(d, site)
        except MovePatternError:
            continue
        sites.append(site)
    return sites

"""Shared test helpers: the small-diagram corpus, the clasp pair (a
band-pass host), the planarity check and the cycle walk (neither calls
the diagram layer's faces or cycles), every public reader of a
diagram, a seeded random-move walker, random codes of sound slots,
mirror images, split unions, component reversal, component
relabelling and the class it gives, class projection for sublink
tests, the plain move-site formatter, the skein recursion that checks
the Conway engine, the tuple-keyed face walk that checks the dart
table, the multi-pass Wirtinger builder and the crossing scan
that check the presentation's one walk and its pair totals, the
general two-letter Magnus algebra that checks the battery's (u, v)
kernel, and the gadget builder without lazy transport that checks the
built links' isotopy class."""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import combinations

from lzero import diagram, fixtures
from lzero.classify import (ZeroSolveClass, classify, is_zero_solvable,
                            representative)
from lzero.construct import _Builder, _tangle, braid_closure
from lzero.conway import (ConwayPolynomial, canonical_key, conway_polynomial,
                          smooth_crossing, switch_crossing)
from lzero.diagram import (Crossing, LinkDiagram, _renumber_components,
                           component_cycles, consumer_map,
                           crossing_graph_parts, delete_crossings, faces,
                           parse_diagram, render_diagram, sublink, validate)
from lzero.errors import DiagramStructureError
from lzero.invariants import (arf, component_pairs, component_triples,
                              invariant_tuple, sato_levine)
from lzero.milnor import (WirtingerPresentation, linking_number,
                          triple_linking, wirtinger)
from lzero.moves import KINDS, MoveSite, apply_move, enumerate_sites


def euler_ok(d: LinkDiagram) -> bool:
    """Whether the diagram satisfies the planar Euler count.

    A 4-valent graph with v crossings has 2v edges, so every connected
    part with v_i crossings must show v_i + 2 face orbits; summed, the
    whole diagram needs f = v + 2 * parts, counted here by the dict
    walk of :func:`face_walks_reference`.  Crossing-free diagrams carry
    no face data and are vacuously fine.
    """
    if not d.crossings:
        return True
    return (len(face_walks_reference(d))
            == len(d.crossings) + 2 * crossing_graph_parts(d))


def arc_cycles(d: LinkDiagram) -> list[list[int]]:
    """The arc cycles of a code whose slots are a permutation, by a
    plain successor walk: each from its lowest arc, sorted by it, as
    ``diagram.component_cycles`` lists them, but with no validity
    gate, so non-planar codes are walked too."""
    nxt = {}
    for cr in d.crossings:
        nxt[cr.under_in], nxt[cr.over_in] = cr.under_out, cr.over_out
    cycles, seen = [], set()
    for start in sorted(nxt):
        if start not in seen:
            cyc, arc = [], start
            while arc not in seen:
                seen.add(arc)
                cyc.append(arc)
                arc = nxt[arc]
            cycles.append(cyc)
    return cycles


# Codes that no planar diagram has.  In the first, arc 2 is produced
# twice and arc 1 never, so the slots are not a permutation and the walk
# from arc 1 circles 2, 3, 2, 3 without returning; in the second, no
# crossing consumes arc 2, so every walk stops there; the third has
# sound slots, two circles meeting in one crossing, and one face.
REFUSED_CODES = {
    "endless walk": LinkDiagram(
        1, (Crossing(1, 1, 2, 4, 5), Crossing(1, 2, 3, 5, 6),
            Crossing(1, 3, 2, 6, 4)), dict.fromkeys(range(1, 7), 1)),
    "dead end": LinkDiagram(1, (Crossing(1, 1, 2, 3, 4),),
                            dict.fromkeys(range(1, 5), 1)),
    "one-crossing pair": LinkDiagram(2, (Crossing(1, 1, 1, 2, 2),),
                                     {1: 1, 2: 2}),
}


def gated_readers(d: LinkDiagram) -> list[tuple[str, object]]:
    """Every public reader of a diagram, as ``(name, call)`` pairs that
    read ``d``; each starts at the validity gate, so on a code that
    ``validate`` refuses each raises :class:`DiagramStructureError`
    with its list, whatever the component arguments."""
    site = MoveSite("R1+", arcs=(1,), sign=1, variant="under")
    return [
        ("wirtinger", lambda: wirtinger(d)),
        ("invariant_tuple", lambda: invariant_tuple(d)),
        ("classify", lambda: classify(d)),
        ("is_zero_solvable", lambda: is_zero_solvable(d)),
        ("linking_number", lambda: linking_number(d, 1, 2)),
        ("triple_linking", lambda: triple_linking(d, 1, 2, 3)),
        ("arf", lambda: arf(d, 1)),
        ("sato_levine", lambda: sato_levine(d, 1, 2)),
        ("conway_polynomial", lambda: conway_polynomial(d)),
        ("smooth_crossing", lambda: smooth_crossing(d, 1)),
        ("canonical_key", lambda: canonical_key(d)),
        ("faces", lambda: faces(d)),
        ("component_cycles", lambda: component_cycles(d)),
        ("sublink", lambda: sublink(d, {1})),
        *((f"enumerate_sites {kind}",
           lambda kind=kind: enumerate_sites(d, kind)) for kind in KINDS),
        ("apply_move", lambda: apply_move(d, site)),
    ]


def assert_sound(d: LinkDiagram) -> None:
    problems = validate(d)
    assert problems == [], problems
    assert euler_ok(d), "fails the Euler face count:\n" + render_diagram(d)


# Two unknots, a finger of 1 pushed over a finger of 2: crossings 3-6
# form a band-pass square, and the pair is an unlink.
CLASP_PAIR_CODE = """components 2
x + 2 4 1 3
x - 4 10 8 1
x - 11 12 3 5
x + 12 13 5 6
x - 13 2 6 7
x + 10 11 7 8
a 1 1
a 2 2
a 3 1
a 4 2
a 5 1
a 6 1
a 7 1
a 8 1
a 10 2
a 11 2
a 12 2
a 13 2
"""
CLASP_SITE = MoveSite("BANDPASS", crossings=(3, 4, 5, 6))


def clasp_pair() -> LinkDiagram:
    return parse_diagram(CLASP_PAIR_CODE)


def corpus() -> list[tuple[str, LinkDiagram]]:
    """Named small diagrams that the cross-checking tests sweep over."""
    out = [(name, fixtures.load(name)) for name in fixtures.NAMES]
    out.append(("trefoil-mirror", mirror(fixtures.load("trefoil"))))
    out.append(("hopf-", braid_closure((-1, -1), 2)))
    out.append(("trefoil+unknot",
                disjoint_union(fixtures.load("trefoil"),
                               fixtures.load("unknot"))))
    out.append(("clasp-pair", clasp_pair()))
    return out


REIDEMEISTER = ("R1+", "R1-", "R2+", "R2-", "R3")
_GROWTH = {"R1+": 1, "R2+": 2}


def random_move(d: LinkDiagram, rng: random.Random,
                max_crossings: int = 14) -> MoveSite | None:
    """One applicable Reidemeister site chosen at random, or None."""
    kinds = list(REIDEMEISTER)
    rng.shuffle(kinds)
    for kind in kinds:
        if len(d.crossings) + _GROWTH.get(kind, 0) > max_crossings:
            continue
        sites = enumerate_sites(d, kind)
        if sites:
            return rng.choice(sites)
    return None


def random_walk(d: LinkDiagram, rng: random.Random, steps: int,
                max_crossings: int = 14):
    """Yield (site, diagram) pairs along a random Reidemeister walk."""
    for _ in range(steps):
        site = random_move(d, rng, max_crossings)
        if site is None:
            return
        d = apply_move(d, site)
        yield site, d


def walked_hosts(seed: int, steps: int = 6) -> list[LinkDiagram]:
    """The corpus diagrams with crossings, seeded representatives at
    m = 2, 3, 3, 4, and every diagram along a seeded Reidemeister walk
    (R3 included) from each of them."""
    rng = random.Random(seed)
    hosts = [d for _, d in corpus() if d.crossings]
    hosts += [representative(random_class(rng, m, b_bound=1))
              for m in (2, 3, 3, 4)]
    for d in list(hosts):
        hosts += [walked for _, walked in random_walk(
            d, rng, steps=steps, max_crossings=len(d.crossings) + 4)]
    return hosts


def random_class(rng: random.Random, m: int,
                 b_bound: int = 3) -> ZeroSolveClass:
    a = tuple(rng.randint(0, 1) for _ in range(m))
    b = tuple(rng.randint(-b_bound, b_bound)
              for _ in component_triples(m))
    c = tuple(rng.randint(0, 1) for _ in component_pairs(m))
    return ZeroSolveClass(m, a, b, c)


class _ClimbingBuilder(_Builder):
    """``lzero.construct``'s builder before lazy transport: every
    gadget's movers dive from home to the last mover's row, passing over
    the rows and under the movers before them, and climb back the same
    way."""

    def cross_over(self, mover: int, other: int, sign: int):
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
            for row in range(s + 1, movers[-1] + 1):
                self.cross_over(s, row, 1)
            for e in range(idx):
                self.cross_under(s, movers[e], -1)

    def climb(self, movers: tuple[int, ...]):
        for idx in range(len(movers) - 1, -1, -1):
            s = movers[idx]
            for e in range(idx - 1, -1, -1):
                self.cross_under(s, movers[e], 1)
            for row in range(movers[-1], s, -1):
                self.cross_over(s, row, -1)


def climbing_build(m: int, gadgets) -> LinkDiagram:
    """The stack of valid ``gadgets`` with a dive and a climb around
    each one: the same link as ``build_from_gadgets``, up to isotopy."""
    b = _ClimbingBuilder(m)
    for gadget in gadgets:
        comps = tuple(sorted(gadget[1]))
        b.dive(comps)
        b.splice(_tangle(gadget), comps)
        b.climb(comps)
    return b.finish()


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Mirror image: every sign flipped, under/over roles exchanged."""
    return replace(d, crossings=tuple(cr.switched() for cr in d.crossings))


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """Split union; d2's components are renumbered after d1's, its arcs shifted."""
    shift = d1.max_arc()
    crossings = list(d1.crossings)
    for cr in d2.crossings:
        crossings.append(Crossing(cr.sign, cr.under_in + shift,
                                  cr.under_out + shift, cr.over_in + shift,
                                  cr.over_out + shift))
    arc_comp = dict(d1.arc_components)
    for a, c in d2.arc_components.items():
        arc_comp[a + shift] = c + d1.m
    loops = tuple(sorted(d1.free_loops + tuple(c + d1.m for c in d2.free_loops)))
    return LinkDiagram(d1.m + d2.m, tuple(crossings), arc_comp, loops)


def reverse_component(d: LinkDiagram, c: int) -> LinkDiagram:
    """``d`` with component ``c`` reversed: each of c's passages swaps
    its in and out arcs, and a crossing where exactly one of the two
    strands is c's changes sign, so the picture stays the same."""
    comp, crossings = d.arc_components, []
    for cr in d.crossings:
        ui, uo, oi, oo = cr.arcs()
        under, over = comp[ui] == c, comp[oi] == c
        if under:
            ui, uo = uo, ui
        if over:
            oi, oo = oo, oi
        crossings.append(Crossing(-cr.sign if under != over else cr.sign,
                                  ui, uo, oi, oo))
    return LinkDiagram(d.m, tuple(crossings), comp, d.free_loops)


def relabel(d: LinkDiagram, perm: dict[int, int]) -> LinkDiagram:
    """``d`` with component c renamed ``perm[c]``, the picture kept."""
    return LinkDiagram(d.m, d.crossings,
                       {a: perm[c] for a, c in d.arc_components.items()},
                       tuple(sorted(perm[c] for c in d.free_loops)))


def relabel_class(g: ZeroSolveClass, perm: dict[int, int]) -> ZeroSolveClass:
    """The class of a link of class ``g`` relabelled by ``perm``: a and
    c move with their components, and the triple on the sorted image of
    (i, j, k) is b_ijk times the sign of the permutation that sorts
    (perm[i], perm[j], perm[k]), since mubar(ijk) is antisymmetric."""
    a, b = [0] * g.m, {}
    for c, bit in enumerate(g.a, start=1):
        a[perm[c] - 1] = bit
    for triple, v in zip(component_triples(g.m), g.b):
        image = [perm[c] for c in triple]
        odd = sum(x > y for x, y in combinations(image, 2)) % 2
        b[tuple(sorted(image))] = -v if odd else v
    c = {tuple(sorted((perm[i], perm[j]))): bit
         for (i, j), bit in zip(component_pairs(g.m), g.c)}
    return ZeroSolveClass(g.m, tuple(a),
                          tuple(b[t] for t in component_triples(g.m)),
                          tuple(c[pair] for pair in component_pairs(g.m)))


def project_class(g: ZeroSolveClass, keep) -> ZeroSolveClass:
    """Coordinate projection of a class onto a sublink.

    Deleting components just forgets every coordinate that mentions
    them; the survivors keep their values under the order-preserving
    renumbering.
    """
    keep = sorted(keep)
    a = tuple(g.a[comp - 1] for comp in keep)
    b_old = dict(zip(component_triples(g.m), g.b))
    c_old = dict(zip(component_pairs(g.m), g.c))
    b = tuple(b_old[t] for t in combinations(keep, 3))
    c = tuple(c_old[p] for p in combinations(keep, 2))
    return ZeroSolveClass(len(keep), a, b, c)


def render_site_reference(site: MoveSite) -> str:
    """``moves.render_site`` without its fast path: every field that is
    set, in order, joined once."""
    kind, crossings, arcs, sign, variant = site
    return "".join((
        kind,
        " crossings=" + ",".join(map(str, crossings)) if crossings else "",
        " arcs=" + ",".join(map(str, arcs)) if arcs else "",
        (" sign=+" if sign > 0 else " sign=-") if sign else "",
        " variant=" + variant if variant else ""))


def _violations(d: LinkDiagram) -> list[int]:
    """0-based indices of crossings first met on their under strand,
    walking components in numeric order, each from its lowest arc."""
    cons = consumer_map(d)
    cycles = sorted(arc_cycles(d), key=lambda c: d.arc_components[c[0]])
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


def conway_polynomial_naive(d: LinkDiagram,
                            cache: dict | None = None) -> ConwayPolynomial:
    """The Conway polynomial by the bare skein recursion, as an oracle.

    nabla(L+) - nabla(L-) = z * nabla(L0), anchored at nabla(unknot) = 1
    and nabla(split link) = 0.  A diagram is *descending* if, walking
    every component from its lowest arc in numeric order, each crossing
    is first met on its over strand; descending diagrams are unlinks.
    Switching the first violating crossing moves the walk strictly
    forward and smoothing drops a crossing, so the recursion ends.  No
    rewrites, no split detection and no relabelling: exponential, but
    independent of the determinant engine.  Each node is switched and
    smoothed by the bare surgery, with no validity gate: both keep a
    valid code valid.  ``cache``, if given, keeps results keyed by the
    exact code, to share work between calls on the switches and
    smoothings of one diagram.
    """
    key = (d.m, d.crossings, tuple(sorted(d.arc_components.items())),
           d.free_loops)
    if cache is not None and key in cache:
        return cache[key]
    bad = _violations(d)
    if not bad:
        result = ConwayPolynomial.from_dict({0: 1} if d.m == 1 else {})
    else:
        idx = bad[0]
        cr = d.crossings[idx]
        smoothed = _renumber_components(delete_crossings(
            d, {idx}, [(cr.under_in, cr.over_out), (cr.over_in, cr.under_out)]))
        out = conway_polynomial_naive(switch_crossing(d, idx + 1),
                                      cache).as_dict()
        for deg, c in conway_polynomial_naive(smoothed, cache).coeffs:
            out[deg + 1] = out.get(deg + 1, 0) + cr.sign * c
        result = ConwayPolynomial.from_dict(out)
    if cache is not None:
        cache[key] = result
    return result


def random_code(rng: random.Random, crossings: int) -> LinkDiagram:
    """A code with sound slots and the given number of crossings: its
    slots are wired at random and each arc cycle is one component,
    numbered by its lowest arc.  Most such codes describe no planar
    diagram, so ``validate`` refuses them."""
    arcs = range(1, 2 * crossings + 1)
    ins, outs = rng.sample(arcs, len(arcs)), rng.sample(arcs, len(arcs))
    crs = tuple(Crossing(rng.choice((1, -1)), ins[2 * k], outs[2 * k],
                         ins[2 * k + 1], outs[2 * k + 1])
                for k in range(crossings))
    d = LinkDiagram(1, crs, dict.fromkeys(arcs, 1))
    comp = {}
    for n, cyc in enumerate(arc_cycles(d), start=1):
        comp.update(dict.fromkeys(cyc, n))
    d = LinkDiagram(max(comp.values()), crs, comp)
    assert diagram._violations(d) == [], d
    return d


# ---------------------------------------------------------------------------
# Faces by a dict keyed on (arc, forward) darts, holding each dart's
# corner with its slot names.  The production route numbers darts by
# crossing slot in one integer table; this is what it must agree with.

# Counterclockwise slot order around a crossing, recovered from the
# sign: orient the under strand east; a positive crossing has the over
# strand heading north, a negative one south.
_CCW = {
    1: ("under_in", "over_in", "under_out", "over_out"),
    -1: ("under_in", "over_out", "under_out", "over_in"),
}
_SLOTS = ("under_in", "under_out", "over_in", "over_out")


def _face_turns_reference(d: LinkDiagram) -> dict:
    """dart -> (idx, slot, nslot, next dart): a face boundary entering
    crossing ``idx`` at ``slot`` turns to the slot before it in the
    counterclockwise order, ``nslot``, and the next dart leaves there."""
    turns = {}
    for idx, cr in enumerate(d.crossings):
        arcs = cr.arcs()
        order = _CCW[cr.sign]
        for slot, nslot in zip(order, order[-1:] + order[:-1]):
            k, n = _SLOTS.index(slot), _SLOTS.index(nslot)
            # in-slots sit at even positions of ``arcs``: a dart enters
            # forward at an in-slot, and leaves forward at an out-slot
            turns[arcs[k], k % 2 == 0] = (idx, slot, nslot,
                                          (arcs[n], n % 2 == 1))
    return turns


def _walk_face_reference(turns: dict, dart, seen: set) -> list:
    face = []
    while dart not in seen:
        seen.add(dart)
        face.append(dart)
        dart = turns[dart][3]
    return face


def face_walks_reference(d: LinkDiagram) -> list[list[tuple]]:
    """The faces with their corners, from the dict walk: each face a
    cyclic list ``(dart, idx, slot, nslot)``, where the dart enters
    crossing ``idx`` (0-based) at ``slot`` and the face's corner there
    runs to ``nslot``, where the next dart leaves; faces are listed by
    and start at their lowest dart, as ``diagram.faces`` lists them."""
    turns, seen = _face_turns_reference(d), set()
    faces_ = [_walk_face_reference(turns, start, seen)
              for start in sorted(turns) if start not in seen]
    return [[(dart, *turns[dart][:3]) for dart in face] for face in faces_]


def face_through_reference(d: LinkDiagram, dart) -> list:
    """``diagram.face_through`` from the dict walk."""
    turns = _face_turns_reference(d)
    return _walk_face_reference(turns, dart, set()) if dart in turns else []


# ---------------------------------------------------------------------------
# The general two-letter algebra: 6-tuples of coefficients on the words
# (), i, j, ii, ij, iij, every series with constant 1.  The battery
# keeps two integers per generator; this is the full product it must
# agree with.


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


def magnus_expand_reference(pres: ReferencePresentation, i: int,
                            j: int) -> tuple[dict[int, tuple], bool]:
    """``milnor.magnus_expand`` as a dict of full series, from the
    reference presentation's relations: both passes go through every
    relation whose target lies on i or j.  The flag says whether the
    closing (pinned) relations hold at degree three."""
    unit = {i: (1, 1, 0, 0, 0, 0), j: (1, 0, 1, 0, 0, 0)}
    meridians = {g: unit[c] for g, c in pres.class_comp.items() if c in unit}
    rels = [r for r in pres.relations if r[0] in meridians]
    pinned = set(pres.base_class.values())
    series = meridians
    for _ in range(2):
        prev, series, closed = series, dict(meridians), True
        for tgt, src, over, sign in rels:
            value = _conj2(series[src], prev.get(over), sign)
            if tgt not in pinned:
                series[tgt] = value
            else:
                closed &= value == series[tgt]
    return series, closed


def longitude_reference(pres: ReferencePresentation, series: dict,
                        comp: int) -> tuple:
    """``milnor.longitude_series`` as a product over every letter of
    ``comp`` in the reference presentation, the framing factor as a
    power of the meridian."""
    out = (1, 0, 0, 0, 0, 0)
    base = series.get(pres.base_class.get(comp))
    if base is not None:
        w = pres.writhe.get(comp, 0)
        step = base if w < 0 else _inv2(base)
        for _ in range(abs(w)):
            out = _mul2(out, step)
    for over, sign in pres.letters.get(comp, ()):
        o = series.get(over)
        if o is not None:
            out = _mul2(o if sign > 0 else _inv2(o), out)
    return out


def series_of(gens: dict[int, list[int]], expansion) -> dict[int, tuple]:
    """The full series of every generator in a ``milnor.magnus_expand``
    result, keyed by generator, as ``magnus_expand_reference`` gives
    them.  ``gens[c]`` lists the generators of component c by segment,
    as :func:`generators` does, and a generator at segment s has the
    values after the steps before s."""
    (i, _), runs = expansion
    series = {}
    for c, (at, us, vs) in runs.items():
        head = (1, 1, 0) if c == i else (1, 0, 1)
        for s, g in enumerate(gens.get(c, ())):
            t = bisect_left(at, s)
            series[g] = head + (0, us[t], vs[t])
    return series


# ---------------------------------------------------------------------------
# The presentation by several passes over the arcs: the cycles, the
# consumer of every arc, the overpass cut from just past each
# component's last underpass, a separate Gauss-word walk, and segments
# and steps re-derived from the relations and letters.  The production
# route walks each component once; this is what it must agree with.


@dataclass(frozen=True)
class ReferencePresentation:
    m: int
    arc_class: dict[int, int]
    class_comp: dict[int, int]
    base_class: dict[int, int]
    relations: tuple[tuple[int, int, int, int], ...]
    letters: dict[int, tuple[tuple[int, int], ...]]
    writhe: dict[int, int]
    gauss: dict[int, tuple[tuple[int, str], ...]]
    segment: dict[int, int] = field(init=False)
    steps: dict[tuple[int, int], list] = field(init=False)

    def __post_init__(self):
        segment = dict.fromkeys(self.base_class.values(), 0)
        for tgt, src, _, _ in self.relations:
            segment.setdefault(tgt, segment[src] + 1)
        steps: dict[tuple[int, int], list] = {}
        for comp, word in self.letters.items():
            for k, (over, sign) in enumerate(word):
                other = self.class_comp[over]
                steps.setdefault((comp, other), []).append(
                    (k, other, segment[over], sign))
        object.__setattr__(self, "segment", segment)
        object.__setattr__(self, "steps", steps)


def gauss_word(d: LinkDiagram, cons: dict[int, tuple[int, str]],
               start: int) -> tuple[tuple[int, str], ...]:
    """The self-crossing passages ``consumer_map`` gives, in the order
    met walking once around the cycle of arc ``start`` from it."""
    comp_of, crs = d.arc_components, d.crossings
    word, arc = [], start
    while True:
        idx, level = passage = cons[arc]
        cr = crs[idx]
        if comp_of[cr.under_in] == comp_of[cr.over_in]:
            word.append(passage)
        arc = cr.under_out if level == "under" else cr.over_out
        if arc == start:
            return tuple(word)


def wirtinger_reference(d: LinkDiagram) -> ReferencePresentation:
    comp_of, crs, cons = d.arc_components, d.crossings, consumer_map(d)
    comps = range(1, d.m + 1)
    arc_class: dict[int, int] = {}
    class_comp: dict[int, int] = {}
    base_class: dict[int, int] = {}
    relations: list[tuple[int, int, int, int]] = []
    letters = {c: () for c in comps}
    gauss = {c: () for c in comps}
    writhe = dict.fromkeys(comps, 0)

    walks = []
    for cyc in arc_cycles(d):
        # Walk from the head of the base overpass, just past the last
        # underpass; each underpass starts the next overpass.
        p = len(cyc)
        while p and cons[cyc[p - 1]][1] != "under":
            p -= 1
        g, under = cyc[0], []
        for arc in cyc[p:] + cyc[:p]:
            arc_class[arc] = g
            idx, level = cons[arc]
            if level == "under":
                under.append(crs[idx])
                g = crs[idx].under_out
        walks.append((cyc[0], under))
        gauss[comp_of[cyc[0]]] = gauss_word(d, cons, cyc[0])

    for base, under in walks:
        comp = comp_of[base]
        base_class[comp] = base
        gens = [base] + [cr.under_out for cr in under[:-1]]
        class_comp.update(dict.fromkeys(gens, comp))
        overs = [arc_class[cr.over_in] for cr in under]
        signs = [cr.sign for cr in under]
        relations += zip(gens[1:] + gens[:1], gens, overs, signs)
        letters[comp] = tuple(zip(overs, signs))
        writhe[comp] = sum(cr.sign for cr in under
                           if comp_of[cr.over_in] == comp)

    return ReferencePresentation(
        d.m, arc_class, class_comp, base_class, tuple(relations), letters,
        writhe, gauss)


def generators(ref: ReferencePresentation) -> dict[int, list[int]]:
    """Each walked component's generators, named by the first arc of
    their overpass in walk order and listed by segment, the base
    first."""
    gens = {c: [] for c in ref.base_class}
    for g in sorted(ref.class_comp, key=ref.segment.get):
        gens[ref.class_comp[g]].append(g)
    return gens


def presentation_reference(d: LinkDiagram) -> WirtingerPresentation:
    """The production presentation type, filled from
    :func:`wirtinger_reference` and the crossing scan: the battery read
    from it is the reference route for the command line."""
    ref = wirtinger_reference(d)
    return WirtingerPresentation(d.m, ref.steps, ref.writhe, ref.gauss,
                                 _pair_totals(d))


def _pair_totals(d: LinkDiagram) -> dict[tuple[int, int], int]:
    """Signed crossing count of every component pair i < j, in lex
    order, from one scan over the crossings."""
    totals = {p: 0 for p in combinations(range(1, d.m + 1), 2)}
    comp = d.arc_components
    for cr in d.crossings:
        a, b = comp[cr.under_in], comp[cr.over_in]
        if a != b:
            totals[min(a, b), max(a, b)] += cr.sign
    return totals


def linking_numbers(d: LinkDiagram):
    """Yield ``((i, j), lk)`` for every pair i < j in lex order, from
    one scan over the crossings.  An odd signed total raises
    :class:`DiagramStructureError` only once its pair is reached."""
    for (i, j), total in _pair_totals(d).items():
        if total % 2:
            raise DiagramStructureError([
                f"components {i} and {j} cross an odd signed total of "
                f"{total}; the code does not describe a planar diagram"])
        yield (i, j), total // 2

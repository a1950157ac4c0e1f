"""Shared test helpers: the small-diagram corpus, the planarity check,
a seeded random-move walker, random valid codes, class projection for
sublink tests, the plain move-site formatter, the skein recursion that
checks the Conway engine, the tuple-keyed face walk that checks the
dart table, the multi-pass Wirtinger builder and the crossing scan
that check the presentation's one walk and its pair totals, and the
general two-letter Magnus algebra that checks the battery's (u, v)
kernel."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from lzero import fixtures
from lzero.classify import ZeroSolveClass, representative
from lzero.construct import braid_closure, build_from_gadgets
from lzero.conway import ConwayPolynomial, smooth_crossing, switch_crossing
from lzero.diagram import (Crossing, LinkDiagram, component_cycles,
                           consumer_map, crossing_graph_parts,
                           disjoint_union, faces, mirror, validate)
from lzero.errors import DiagramStructureError, ExpansionError
from lzero.invariants import component_pairs, component_triples
from lzero.milnor import WirtingerPresentation
from lzero.moves import MoveSite, apply_move, enumerate_sites


def euler_ok(d: LinkDiagram) -> bool:
    """Whether the diagram satisfies the planar Euler count.

    A 4-valent graph with v crossings has 2v edges, so every connected
    part with v_i crossings must show v_i + 2 face orbits; summed, the
    whole diagram needs f = v + 2 * parts.  Crossing-free diagrams
    carry no face data and are vacuously fine.
    """
    if not d.crossings:
        return True
    return len(faces(d)) == len(d.crossings) + 2 * crossing_graph_parts(d)


def assert_sound(d: LinkDiagram) -> None:
    problems = validate(d)
    assert problems == [], problems
    assert euler_ok(d), f"{d.name or 'diagram'} fails the Euler face count"


def corpus() -> list[tuple[str, LinkDiagram]]:
    """Named small diagrams that the cross-checking tests sweep over."""
    out = [(name, fixtures.load(name)) for name in fixtures.NAMES]
    out.append(("trefoil-mirror", mirror(fixtures.load("trefoil"))))
    out.append(("hopf-", braid_closure((-1, -1), 2, name="hopf-")))
    out.append(("trefoil+unknot",
                disjoint_union(fixtures.load("trefoil"),
                               fixtures.load("unknot"))))
    clasp, _ = build_from_gadgets(2, [("CLASP", (1, 2))], name="clasp-pair")
    out.append(("clasp-pair", clasp))
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
    independent of the determinant engine.  ``cache``, if given, keeps
    results keyed by the exact code, to share work between calls on
    the switches and smoothings of one diagram.
    """
    key = (d.m, d.crossings, tuple(sorted(d.arc_components.items())),
           d.free_loops)
    if cache is not None and key in cache:
        return cache[key]
    bad = _violations(d)
    if not bad:
        result = ConwayPolynomial.from_dict({0: 1} if d.m == 1 else {})
    else:
        cid = bad[0] + 1
        sign = d.crossing(cid).sign
        out = conway_polynomial_naive(switch_crossing(d, cid), cache).as_dict()
        for deg, c in conway_polynomial_naive(smooth_crossing(d, cid),
                                              cache).coeffs:
            out[deg + 1] = out.get(deg + 1, 0) + sign * c
        result = ConwayPolynomial.from_dict(out)
    if cache is not None:
        cache[key] = result
    return result


def random_code(rng: random.Random, crossings: int) -> LinkDiagram:
    """A valid code with the given number of crossings: its slots are
    wired at random and each arc cycle is one component, numbered by
    its lowest arc.  Most such codes describe no planar diagram."""
    arcs = range(1, 2 * crossings + 1)
    ins, outs = rng.sample(arcs, len(arcs)), rng.sample(arcs, len(arcs))
    crs = tuple(Crossing(rng.choice((1, -1)), ins[2 * k], outs[2 * k],
                         ins[2 * k + 1], outs[2 * k + 1])
                for k in range(crossings))
    d = LinkDiagram(1, crs, dict.fromkeys(arcs, 1))
    comp = {}
    for n, cyc in enumerate(component_cycles(d), start=1):
        comp.update(dict.fromkeys(cyc, n))
    d = LinkDiagram(max(comp.values()), crs, comp)
    assert validate(d) == [], d
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
    """``diagram.face_walks`` from the dict walk: each face a cyclic
    list ``(dart, idx, slot, nslot)``, listed by and starting at its
    lowest dart."""
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


def magnus_expand_reference(pres: WirtingerPresentation, i: int, j: int,
                            require_exact: bool = True) -> dict[int, tuple]:
    """``milnor.magnus_expand`` as a dict of full series: both passes go
    through every relation whose target lies on i or j."""
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
            elif final and require_exact and value != series[tgt]:
                raise ExpansionError(
                    f"components {i} and {j}: relations are not exactly "
                    "satisfiable at degree three; not a planar diagram")
    return series


def longitude_reference(pres: WirtingerPresentation, series: dict,
                        comp: int) -> tuple:
    """``milnor.longitude_series`` as a product over every letter of
    ``comp``, the framing factor as a power of the meridian."""
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

    def generators(self) -> list[int]:
        return sorted(set(self.arc_class.values()))


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
    for cyc in component_cycles(d):
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


def presentation_reference(d: LinkDiagram) -> WirtingerPresentation:
    """The production presentation type, filled from
    :func:`wirtinger_reference` and the crossing scan: the battery read
    from it is the reference route for the command line."""
    ref = wirtinger_reference(d)
    gens = {c: [] for c in ref.base_class}
    for g in sorted(ref.class_comp, key=ref.segment.get):
        gens[ref.class_comp[g]].append(g)
    return WirtingerPresentation(d.m, gens, ref.steps, ref.writhe, ref.gauss,
                                 _pair_totals(d), crossings=d.crossings)


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

"""Shared test helpers: the small-diagram corpus, the planarity check,
a seeded random-move walker, random valid codes, class projection for
sublink tests, the plain move-site formatter, the skein recursion that
checks the Conway engine, and the general two-letter Magnus algebra
that checks the battery's (u, v) kernel."""

from __future__ import annotations

import random
from itertools import combinations

from lzero import fixtures
from lzero.classify import ZeroSolveClass, representative
from lzero.construct import braid_closure, build_from_gadgets
from lzero.conway import ConwayPolynomial, smooth_crossing, switch_crossing
from lzero.diagram import (Crossing, LinkDiagram, component_cycles,
                           consumer_map, crossing_graph_parts,
                           disjoint_union, faces, mirror, validate)
from lzero.errors import ExpansionError
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

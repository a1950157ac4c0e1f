"""Shared test helpers: the small-diagram corpus, the planarity check,
a seeded random-move walker, class projection for sublink tests, and
the skein recursion that checks the Conway engine."""

from __future__ import annotations

import random
from itertools import combinations

from lzero import fixtures
from lzero.classify import ZeroSolveClass
from lzero.construct import braid_closure, build_from_gadgets
from lzero.conway import ConwayPolynomial, smooth_crossing, switch_crossing
from lzero.diagram import (LinkDiagram, component_cycles, consumer_map,
                           crossing_graph_parts, disjoint_union, faces,
                           mirror, validate)
from lzero.invariants import component_pairs, component_triples
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

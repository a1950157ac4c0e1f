"""Acceptance suite: one test per advertised guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and enforces its own runtime budget.  Everything here is
exact integer arithmetic; there are no tolerances to tune.
"""

import itertools
import random
import time

from lzero import fixtures
from lzero.classify import (ZeroSolveClass, class_add, class_gadgets,
                            classify, equivalent, identity_class,
                            representative)
from lzero.construct import braid_closure, build_from_gadgets
from lzero.conway import conway_polynomial, conway_polynomial_naive
from lzero.diagram import sublink
from lzero.invariants import (arf, component_pairs, component_triples,
                              sato_levine)
from lzero.milnor import (linking_number, longitude_series, magnus_expand,
                          triple_linking, wirtinger)
from lzero.moves import apply_move, enumerate_sites
from util import corpus, project_class, random_class, random_move


def _finish(n: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    line = f"criterion {n}: PASS — {desc} ({elapsed:.2f}s)"
    if elapsed >= budget:
        print(line.replace("PASS", "FAIL"))
        raise AssertionError(
            f"criterion {n} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")
    print(line)


def _fail_line(n: int, desc: str):
    print(f"criterion {n}: FAIL — {desc}")


def test_criterion_1_anchored_values():
    desc = "anchored invariant values on the named links"
    t0 = time.perf_counter()
    try:
        checks = [
            ("trefoil a2", lambda: conway_polynomial(
                fixtures.load("trefoil")).coefficient(2), 1),
            ("trefoil arf", lambda: arf(fixtures.load("trefoil"), 1), 1),
            ("fig8 a2", lambda: conway_polynomial(
                fixtures.load("fig8")).coefficient(2), -1),
            ("whitehead lk", lambda: linking_number(
                fixtures.load("whitehead"), 1, 2), 0),
            ("whitehead sl", lambda: sato_levine(
                fixtures.load("whitehead"), 1, 2), 1),
            ("borromean lk", lambda: max(
                abs(linking_number(fixtures.load("borromean"), i, j))
                for i, j in component_pairs(3)), 0),
            ("borromean triple", lambda: triple_linking(
                fixtures.load("borromean"), 1, 2, 3), 1),
        ]
        for label, compute, expected in checks:
            t1 = time.perf_counter()
            got = compute()
            dt = time.perf_counter() - t1
            assert got == expected, f"{label}: expected {expected}, got {got}"
            assert dt < 1.0, f"{label} took {dt:.2f}s (budget 1s)"
    except BaseException:
        _fail_line(1, desc)
        raise
    _finish(1, desc, t0, 7.0)


def test_criterion_2_two_component_table():
    desc = "the 8 two-component classes are realized and pairwise distinct"
    t0 = time.perf_counter()
    try:
        classes = [ZeroSolveClass(2, (a1, a2), (), (c,))
                   for a1 in (0, 1) for a2 in (0, 1) for c in (0, 1)]
        diagrams = [representative(g) for g in classes]
        for g, d in zip(classes, diagrams):
            assert classify(d) == g
        for (g1, d1), (g2, d2) in itertools.combinations(
                zip(classes, diagrams), 2):
            assert not equivalent(d1, d2), (g1, g2)
        assert len({classify(d) for d in diagrams}) == 8
    except BaseException:
        _fail_line(2, desc)
        raise
    _finish(2, desc, t0, 5.0)


def test_criterion_3_round_trip():
    desc = "classify(representative(g)) = g on 120 random classes, m <= 4"
    t0 = time.perf_counter()
    try:
        rng = random.Random(20250815)
        for trial in range(120):
            m = rng.randint(1, 4)
            g = random_class(rng, m, b_bound=3)
            assert classify(representative(g)) == g, (trial, g)
    except BaseException:
        _fail_line(3, desc)
        raise
    _finish(3, desc, t0, 60.0)


def test_criterion_4_memo_matches_naive():
    desc = "memoized and naive skein evaluations agree on the corpus"
    t0 = time.perf_counter()
    try:
        for name, d in corpus():
            if len(d.crossings) > 8:
                continue
            assert conway_polynomial(d) == conway_polynomial_naive(d), name
    except BaseException:
        _fail_line(4, desc)
        raise
    _finish(4, desc, t0, 30.0)


def _battery(d):
    lk = {p: linking_number(d, *p) for p in component_pairs(d.m)}
    out = {"lk": lk, "conway": conway_polynomial(d)}
    if all(v == 0 for v in lk.values()):
        out["triple"] = {t: triple_linking(d, *t)
                         for t in component_triples(d.m)}
        out["class"] = classify(d)
    return out


def test_criterion_5_move_invariance():
    desc = "500 strand moves and 50 band passes change no reading"
    t0 = time.perf_counter()
    try:
        moves_done = 0
        for name, d in corpus():
            if not d.crossings:
                continue
            base = _battery(d)
            rng = random.Random(name)
            current = d
            for _ in range(63):
                site = random_move(current, rng)
                if site is None:
                    break
                current = apply_move(current, site)
                moves_done += 1
                now = _battery(current)
                assert now["conway"] == base["conway"], (name, site)
                assert now["lk"] == base["lk"], (name, site)
                if "class" in base:
                    assert now["triple"] == base["triple"], (name, site)
                    assert now["class"] == base["class"], (name, site)
        assert moves_done >= 500, f"only {moves_done} moves exercised"

        passes_done = 0
        rng = random.Random(99)
        while passes_done < 50:
            m = rng.randint(2, 4)
            gadgets = [("CLASP", tuple(rng.sample(range(1, m + 1), 2)))]
            if rng.random() < 0.5:
                gadgets.append(("TREFOIL", (rng.randint(1, m),)))
            if m >= 3 and rng.random() < 0.5:
                gadgets.append(("BORROMEAN",
                                tuple(rng.sample(range(1, m + 1), 3)),
                                rng.choice((1, -1))))
            d, sites = build_from_gadgets(m, gadgets)
            g = classify(d)
            sl_before = {p: sato_levine(d, *p) for p in component_pairs(m)}
            for site in sites:
                moved = apply_move(d, site)
                assert classify(moved) == g, (gadgets, site)
                for p, v in sl_before.items():
                    after = sato_levine(moved, *p)
                    assert (after - v) % 2 == 0, (gadgets, site, p)
                passes_done += 1
    except BaseException:
        _fail_line(5, desc)
        raise
    _finish(5, desc, t0, 120.0)


def test_criterion_6_degree_one_consistency():
    desc = "longitude degree-1 coefficients equal crossing-count linking"
    t0 = time.perf_counter()
    try:
        for name, d in corpus():
            pres = wirtinger(d)
            for i, j in itertools.permutations(range(1, d.m + 1), 2):
                series = magnus_expand(pres, j, i, require_exact=False)
                assert longitude_series(pres, series, i)[1] == \
                    linking_number(d, i, j), (name, i, j)
    except BaseException:
        _fail_line(6, desc)
        raise
    _finish(6, desc, t0, 30.0)


def test_criterion_7_stacking_additivity():
    desc = "stacked gadget sets classify to the sum of their classes"
    t0 = time.perf_counter()
    try:
        rng = random.Random(4242)
        for trial in range(50):
            m = rng.randint(1, 3)
            g = random_class(rng, m, b_bound=2)
            h = random_class(rng, m, b_bound=2)
            stacked, _ = build_from_gadgets(
                m, class_gadgets(g) + class_gadgets(h))
            assert classify(stacked) == class_add(g, h), (trial, g, h)
    except BaseException:
        _fail_line(7, desc)
        raise
    _finish(7, desc, t0, 60.0)


def test_criterion_8_sublink_projection():
    desc = "sublinks classify to coordinate projections"
    t0 = time.perf_counter()
    try:
        for name, d in corpus():
            lk = {p: linking_number(d, *p) for p in component_pairs(d.m)}
            if any(v != 0 for v in lk.values()):
                continue
            g = classify(d)
            comps = range(1, d.m + 1)
            for size in range(1, d.m + 1):
                for keep in itertools.combinations(comps, size):
                    assert classify(sublink(d, keep)) == \
                        project_class(g, keep), (name, keep)
    except BaseException:
        _fail_line(8, desc)
        raise
    _finish(8, desc, t0, 30.0)


def test_criterion_9_twelve_crossing_performance():
    desc = "a 12-crossing diagram's polynomial inside the time floor"
    t0 = time.perf_counter()
    try:
        d = braid_closure((1, -2, 1, -2, 1, -2, 1, -2, 1, -2, 1, -2), 3)
        assert len(d.crossings) == 12
        t1 = time.perf_counter()
        poly = conway_polynomial(d)
        dt = time.perf_counter() - t1
        assert dt < 5.0, f"took {dt:.2f}s (budget 5s)"
        assert not poly.is_zero()
    except BaseException:
        _fail_line(9, desc)
        raise
    _finish(9, desc, t0, 10.0)

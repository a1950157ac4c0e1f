"""The invariant battery against independent oracles.

Each coordinate has one production route; these checks compare it with
readings it does not share: the class a diagram was built in, the other
two longitudes of a triple, the per-sublink expansion, the general
two-letter algebra in ``tests/util.py``, and the skein engine's Conway
coefficients of cut-out sublinks.
"""

import itertools
import random
import sys

import pytest

from lzero import fixtures
from lzero.classify import ZeroSolveClass, classify, representative
from lzero.cli import main
from lzero.construct import braid_closure, build_from_gadgets
from lzero.conway import conway_polynomial
from lzero.diagram import (Crossing, LinkDiagram, _violations,
                           component_cycles, consumer_map, disjoint_union,
                           mirror, parse_diagram, render_diagram, sublink)
from lzero.errors import DiagramStructureError
from lzero.invariants import (InvariantTuple, _gauss_arf, arf,
                              component_pairs, component_triples,
                              invariant_tuple, sato_levine)
from lzero.milnor import (_wirtinger, linking_number, longitude_series,
                          magnus_expand, triple_linking, wirtinger)
from lzero.moves import apply_move, enumerate_sites, render_site
from util import (_pair_totals, corpus, euler_ok, generators,
                  linking_numbers, longitude_reference,
                  magnus_expand_reference, random_class, random_code,
                  random_walk, series_of, walked_hosts, wirtinger_reference)


def _walked(g: ZeroSolveClass, rng: random.Random, steps: int, growth: int):
    """The representative of ``g`` after a seeded R1-R3 walk, and the
    number of R3 steps the walk took."""
    d = representative(g)
    r3 = 0
    for site, d in random_walk(d, rng, steps,
                               max_crossings=len(d.crossings) + growth):
        r3 += site.kind == "R3"
    return d, r3


def test_r3_moves_keep_the_class():
    # every m=3 class with b = +-1: 2^3 Arf bits x 2 signs x 2^3 pair bits
    classes = [ZeroSolveClass(3, a, (b,), c)
               for a in itertools.product((0, 1), repeat=3)
               for b in (1, -1)
               for c in itertools.product((0, 1), repeat=3)]
    assert len(classes) == 128
    for g in classes:
        d = representative(g)
        sites = enumerate_sites(d, "R3")
        assert sites, g
        for site in sites:
            assert classify(apply_move(d, site)) == g, (g, render_site(site))


def test_longitudes_agree_cyclically_after_walks():
    # mubar(ij;k) = mubar(jk;i) = mubar(ki;j): three longitudes, one value
    r3_steps = 0
    for seed in range(20):
        rng = random.Random(seed)
        m = 3 + seed % 2
        g = random_class(rng, m, b_bound=1)
        d, r3 = _walked(g, rng, 12, 6)
        r3_steps += r3
        pres = wirtinger(d)
        for (i, j, k), b in zip(component_triples(m), g.b):
            readings = tuple(
                longitude_series(pres, magnus_expand(pres, p, q), r)[4]
                for p, q, r in ((i, j, k), (j, k, i), (k, i, j)))
            assert readings == (b, b, b), (seed, (i, j, k), readings)
    assert r3_steps > 0


def test_zero_framed_longitudes_have_no_meridian_terms():
    # a zero-framed longitude bounds in its own component's complement,
    # so its words in its own letter alone vanish; walks with R1 moves
    # give nonzero self-writhes for the framing factor to cancel
    pairs, writhes = 0, set()
    for seed in range(40):
        rng = random.Random(seed)
        g = random_class(rng, 2 + seed % 3, b_bound=1)
        d, _ = _walked(g, rng, 12, 6)
        pres = wirtinger(d)
        for i, j in itertools.permutations(range(1, d.m + 1), 2):
            if not (pres.writhe[i] or pres.writhe[j]):
                continue
            series = magnus_expand(pres, i, j)
            lon_i = longitude_series(pres, series, i)
            lon_j = longitude_series(pres, series, j)
            assert (lon_i[1], lon_i[3], lon_j[2]) == (0, 0, 0), (seed, i, j)
            pairs += 1
            writhes.add(pres.writhe[i])
    assert pairs >= 200 and {-4, 2, 5} <= writhes


def _count_calls(monkeypatch, *funcs):
    """Count calls to ``funcs`` through every ``lzero`` binding of them."""
    counts = {f.__name__: 0 for f in funcs}
    for f in funcs:
        def counted(*args, _f=f, **kwargs):
            counts[_f.__name__] += 1
            return _f(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "lzero" or name.startswith("lzero."):
                for attr, val in list(vars(module).items()):
                    if val is f:
                        monkeypatch.setattr(module, attr, counted)
    return counts


def test_battery_expands_each_pair_once(monkeypatch):
    rng = random.Random(37)
    built = [representative(random_class(rng, m, b_bound=1))
             for m in range(2, 7)]
    counts = _count_calls(monkeypatch, wirtinger, magnus_expand, sublink,
                          component_cycles, consumer_map, linking_number)
    for d in built:
        for run in (invariant_tuple, classify):
            counts.update(dict.fromkeys(counts, 0))
            run(d)
            # one walk of the diagram serves Arf, the presentation and
            # every linking number; no cycle listing, no crossing scan
            assert counts == {"wirtinger": 1,
                              "magnus_expand": d.m * (d.m - 1) // 2,
                              "sublink": 0, "component_cycles": 0,
                              "consumer_map": 1,
                              "linking_number": 0}, (run.__name__, d.m)
        for t in itertools.permutations(range(1, d.m + 1), 3):
            triple_linking(d, *t)
        assert counts["sublink"] == 0, d.m


def _kernel_hosts():
    """Walked hosts, representatives with m 2-6 and their R1-R3 walks,
    one with a free loop, and random codes of sound slots with 1-7
    crossings."""
    yield from walked_hosts(3)
    rng = random.Random(38)
    for m in range(2, 7):
        d = representative(random_class(rng, m, b_bound=1))
        yield d
        yield from (w for _, w in random_walk(
            d, rng, 6, max_crossings=len(d.crossings) + 4))
    yield disjoint_union(d, fixtures.load("unknot"))
    for _ in range(600):
        yield random_code(rng, rng.randint(1, 7))


def test_kernel_matches_the_general_algebra():
    # every series and longitude of the (u, v) kernel against the full
    # 6-tuple products over the multi-pass presentation, which shares no
    # code with the one walk; on planar hosts, the battery read from
    # them too, and the closing relations, which the kernel does not
    # check, hold for every pair with lk = 0.  The random codes that
    # fail the Euler count reach the walk through its ungated body, and
    # are refused at parse and by ``wirtinger``.
    seen = {"planar": 0, "refused": 0, "open pairs": 0}
    for d in _kernel_hosts():
        planar = euler_ok(d)
        pres = (wirtinger if planar else _wirtinger)(d)
        ref = wirtinger_reference(d)
        gens, totals = generators(ref), _pair_totals(d)
        for i, j in itertools.permutations(range(1, d.m + 1), 2):
            got = magnus_expand(pres, i, j)
            want, closed = magnus_expand_reference(ref, i, j)
            assert series_of(gens, got) == want, (render_diagram(d), i, j)
            for k in range(1, d.m + 1):
                assert longitude_series(pres, got, k) == \
                    longitude_reference(ref, want, k), (i, j, k)
            if planar and not totals[min(i, j), max(i, j)]:
                assert closed, (render_diagram(d), i, j)
            seen["open pairs"] += not closed
        if planar:
            assert invariant_tuple(d) == _reference_battery(d, ref), \
                render_diagram(d)
            seen["planar"] += 1
        else:
            for refuse in (lambda: parse_diagram(render_diagram(d)),
                           lambda: wirtinger(d)):
                with pytest.raises(DiagramStructureError,
                                   match="not a planar diagram$"):
                    refuse()
            seen["refused"] += 1
    assert min(seen.values()) >= 100, seen


def _reference_battery(d, ref):
    """``invariant_tuple`` read from the general algebra over the
    reference presentation ``ref``, with its Gauss words and the
    crossing scan."""
    linking = dict(linking_numbers(d))
    arfs = tuple(_gauss_arf(d.crossings, ref.gauss[c])
                 for c in range(1, d.m + 1))
    if any(linking.values()):
        return InvariantTuple(d.m, linking, arfs, None, None)
    triple, sato = {}, {}
    for i, j in component_pairs(d.m):
        series, _ = magnus_expand_reference(ref, i, j)
        sato[i, j] = -longitude_reference(ref, series, j)[5]
        for k in range(j + 1, d.m + 1):
            triple[i, j, k] = longitude_reference(ref, series, k)[4]
    return InvariantTuple(d.m, linking, arfs, triple, sato)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_whole_link_reading_matches_each_sublink(m):
    rng = random.Random(m)
    for _ in range(3):
        g = random_class(rng, m, b_bound=2)
        d = representative(g)
        whole = invariant_tuple(d).triple
        assert whole == {t: triple_linking(sublink(d, t), 1, 2, 3)
                         for t in component_triples(m)}, g
        assert whole == {t: triple_linking(d, *t)
                         for t in component_triples(m)}, g
        assert tuple(whole.values()) == g.b


def test_leading_conway_coefficient_is_triple_squared():
    # Levine: for three components with vanishing linking numbers the
    # z^4 coefficient of the Conway polynomial is mubar(123)^2
    for seed in range(10):
        rng = random.Random(seed)
        g = ZeroSolveClass(3, (0, 0, 0), (rng.choice((-2, -1, 1, 2)),),
                           (0, 0, 0))
        d, _ = _walked(g, rng, 8, 4)
        (b,) = classify(d).b
        assert conway_polynomial(d).coefficient(4) == b * b, (seed, b)


# ---------------------------------------------------------------------------
# Arf and the pair coordinate against the skein engine on sublinks


def _braids(seed, count, strands, length):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(strands)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, length)))
        yield str(word), braid_closure(word, n)


def _walked_reps(seed, count):
    rng = random.Random(seed)
    for t in range(count):
        g = random_class(rng, 2 + t % 2, b_bound=1)
        yield f"walk {t}", _walked(g, rng, 10, 4)[0]


def test_arf_matches_the_skein_on_knot_sublinks():
    cases = (corpus() + list(_braids(31, 60, (2, 3, 4), 10))
             + list(_walked_reps(32, 8)))
    odd = 0
    for name, d in cases:
        for c in range(1, d.m + 1):
            want = conway_polynomial(sublink(d, [c])).coefficient(2) % 2
            assert arf(d, c) == want, (name, c)
            odd += want
    assert odd > 10


def test_sato_levine_matches_the_skein_on_pair_sublinks():
    stacks = []
    for k in range(1, 5):
        d = build_from_gadgets(2, [("WHITEHEAD", (1, 2))] * k)
        stacks += [(f"whitehead x{k}", d), (f"mirror whitehead x{k}",
                                            mirror(d))]
    cases = (corpus() + stacks + list(_braids(33, 120, (3, 4), 12))
             + list(_walked_reps(34, 8)))
    seen = set()
    for name, d in cases:
        for i, j in component_pairs(d.m):
            if linking_number(d, i, j):
                continue
            want = conway_polynomial(sublink(d, [i, j])).coefficient(3)
            assert sato_levine(d, i, j) == sato_levine(d, j, i) == want, \
                (name, i, j)
            seen.add(want)
    assert {-4, 4, -1, 1} <= seen


def test_class_battery_uses_neither_the_skein_nor_sublinks(monkeypatch):
    rng = random.Random(36)
    built = [(g, representative(g))
             for g in (random_class(rng, m, b_bound=2) for m in range(2, 7))]

    def refuse(*args, **kwargs):
        raise AssertionError("the class battery left the whole diagram")

    for name, module in list(sys.modules.items()):
        if name == "lzero" or name.startswith("lzero."):
            for attr in ("conway_polynomial", "sublink"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for g, d in built:
        assert classify(d) == g
        t = invariant_tuple(d)
        assert (t.arf, tuple(t.triple.values())) == (g.a, g.b)
        assert tuple(v % 2 for v in t.sato_levine.values()) == g.c


# Codes with sound slots that no planar diagram has.  A pair of circles
# meeting in a single crossing has an odd signed total.
_ODD = LinkDiagram(2, (Crossing(1, 1, 1, 2, 2),), {1: 1, 2: 2})
# Every linking number is 0, but the (1, 2) relations do not close.
_NON_PLANAR_PAIR = LinkDiagram(
    2, (Crossing(1, 7, 6, 4, 8), Crossing(-1, 1, 5, 6, 4),
        Crossing(-1, 8, 1, 2, 3), Crossing(1, 5, 7, 3, 2)),
    {arc: 1 + (arc in (2, 3)) for arc in range(1, 9)})
_NON_PLANAR_TRIPLE = LinkDiagram(
    3, (Crossing(1, 6, 1, 5, 2), Crossing(-1, 4, 3, 3, 4),
        Crossing(-1, 2, 5, 1, 6)),
    {1: 1, 2: 2, 3: 3, 4: 3, 5: 2, 6: 1})


_REFUSED = ("error: {} faces for {} crossings in {}, not {}: "
            "not a planar diagram\n")


@pytest.mark.parametrize("command", ["classify", "solvable"])
@pytest.mark.parametrize("linked_first", [True, False],
                         ids=["linked-first", "odd-first"])
def test_refusal_order_with_an_odd_pair(tmp_path, capsys, command,
                                        linked_first):
    # the face count at parse comes before every linking refusal: the
    # odd pair is refused on either side of a linked one
    hopf = fixtures.load("hopf+")
    d = disjoint_union(hopf, _ODD) if linked_first else \
        disjoint_union(_ODD, hopf)
    assert [lk for _, lk in linking_numbers(hopf)] == [1]
    path = tmp_path / "mixed.lz"
    path.write_text(render_diagram(d), encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", _REFUSED.format(5, 3, "2 connected parts", 7))


def test_non_planar_pair_is_refused(tmp_path, capsys):
    # every linking number is 0; each command refuses both codes at parse
    for d, found, n, parts, want in (
            (_NON_PLANAR_PAIR, 2, 4, "one connected part", 6),
            (_NON_PLANAR_TRIPLE, 5, 3, "2 connected parts", 7)):
        assert _violations(d) == [] and not euler_ok(d)
        assert all(lk == 0 for _, lk in linking_numbers(d))
        path = tmp_path / "witness.lz"
        path.write_text(render_diagram(d), encoding="utf-8")
        for command in ("invariants", "conway", "classify", "solvable"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == \
                ("", _REFUSED.format(found, n, parts, want)), command

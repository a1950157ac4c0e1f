"""Truncated group-ring series, link group presentations, linking data."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from lzero import fixtures
from lzero.classify import representative
from lzero.construct import braid_closure, build_from_gadgets
from lzero.diagram import (Crossing, LinkDiagram, parse_diagram,
                           render_diagram)
from lzero.errors import DiagramStructureError, InvariantUndefinedError
from lzero.invariants import invariant_tuple, sato_levine
from lzero.milnor import (WirtingerPresentation, _wirtinger, linking_number,
                          longitude_series, magnus_expand, triple_linking,
                          wirtinger)
from util import (_inv2, _mul2, _pair_totals, disjoint_union, euler_ok,
                  generators, linking_numbers, mirror,
                  presentation_reference, random_class, random_code,
                  random_walk, series_of, walked_hosts, wirtinger_reference)


# ---------------------------------------------------------------------------
# two-letter series algebra (words (), i, j, ii, ij, iij)

ONE = (1, 0, 0, 0, 0, 0)
H_I = (1, 1, 0, 0, 0, 0)
H_J = (1, 0, 1, 0, 0, 0)


def test_unit_and_meridian_shapes():
    # magnus_expand pins each base overpass to its exact meridian
    d = fixtures.load("borromean")
    pres, gens = wirtinger(d), generators(wirtinger_reference(d))
    for i, j in ((1, 2), (1, 3), (2, 3), (3, 1)):
        series = series_of(gens, magnus_expand(pres, i, j))
        assert series[gens[i][0]] == H_I
        assert series[gens[j][0]] == H_J
    assert _mul2(ONE, H_I) == _mul2(H_I, ONE) == H_I


def test_product_is_noncommutative_at_degree_two():
    ab, ba = _mul2(H_I, H_J), _mul2(H_J, H_I)
    assert ab[4] == 1 and ba[4] == 0  # word ij: h_i h_j != h_j h_i
    assert ab[1:3] == ba[1:3] == (1, 1)


def test_meridian_powers():
    cube = _mul2(_mul2(H_I, H_I), H_I)
    assert cube[1] == 3
    assert cube[3] == 3  # C(3, 2)
    inv = _inv2(H_I)
    assert inv[1] == -1
    assert inv[3] == 1


series6 = st.tuples(st.just(1), *[st.integers(-4, 4)] * 5)


@given(s=series6)
@settings(max_examples=80, deadline=None)
def test_inverse_round_trip(s):
    assert _mul2(s, _inv2(s)) == ONE
    assert _mul2(_inv2(s), s) == ONE


@given(x=series6, y=series6, z=series6)
@settings(max_examples=80, deadline=None)
def test_product_is_associative(x, y, z):
    assert _mul2(_mul2(x, y), z) == _mul2(x, _mul2(y, z))


@given(w=st.integers(-6, 6))
@settings(max_examples=30, deadline=None)
def test_power_matches_repeated_multiplication(w):
    # a component with self-writhe w and no letters: its longitude is
    # the framing factor alone, the meridian to the power -w
    pres = WirtingerPresentation(2, {}, {1: w, 2: w}, {1: (), 2: ()},
                                 {(1, 2): 0})
    series = magnus_expand(pres, 1, 2)
    assert series_of({1: [10], 2: [20]}, series) == {10: H_I, 20: H_J}
    for comp, mer in ((1, H_I), (2, H_J)):
        slow, step = ONE, (mer if w < 0 else _inv2(mer))
        for _ in range(abs(w)):
            slow = _mul2(slow, step)
        assert longitude_series(pres, series, comp) == slow, comp


# ---------------------------------------------------------------------------
# presentations


def test_wirtinger_shape():
    for name in ("trefoil", "whitehead", "borromean"):
        d = fixtures.load(name)
        pres = wirtinger(d)
        # one relation per crossing, at the underpass letter
        assert sum(map(len, pres.steps.values())) == len(d.crossings), name
        # a component with n underpasses has n overpass generators, at
        # segments 0 .. n-1
        under = {c: sum(len(run) for (a, _), run in pres.steps.items()
                        if a == c) for c in range(1, d.m + 1)}
        assert all(0 <= s < under[other] for run in pres.steps.values()
                   for _, other, s, _ in run), name


def _presentation_hosts():
    """Walked hosts, representatives with m 1-8 and their R1-R3 walks,
    one with a free-loop component, and random codes of sound slots
    with 1-8 crossings."""
    yield from walked_hosts(3)
    rng = random.Random(39)
    for m in range(1, 9):
        d = representative(random_class(rng, m, b_bound=1))
        yield d
        yield from (w for _, w in random_walk(
            d, rng, 5, max_crossings=len(d.crossings) + 4))
    yield disjoint_union(d, fixtures.load("unknot"))
    for _ in range(600):
        yield random_code(rng, rng.randint(1, 8))


_FIELDS = ("m", "steps", "writhe", "gauss", "totals")


def test_one_walk_matches_the_multi_pass_presentation():
    # every field of the one-walk presentation against the cycle /
    # consumer / Gauss-word passes, and every pair total against a plain
    # scan of the crossings, lex order included; a code that fails the
    # Euler count reaches the walk through its ungated body, and
    # ``wirtinger`` refuses it
    seen = {"hosts": 0, "free loops": 0, "odd totals": 0, "m": set()}
    for d in _presentation_hosts():
        if euler_ok(d):
            pres = wirtinger(d)
        else:
            with pytest.raises(DiagramStructureError,
                               match="not a planar diagram$"):
                wirtinger(d)
            pres = _wirtinger(d)
        want = presentation_reference(d)
        for name in _FIELDS:
            assert getattr(pres, name) == getattr(want, name), \
                (name, render_diagram(d))
        totals = _pair_totals(d)
        assert list(pres.totals) == list(totals)
        seen["hosts"] += 1
        seen["free loops"] += bool(d.free_loops)
        seen["odd totals"] += any(t % 2 for t in totals.values())
        seen["m"].add(d.m)
    assert seen["hosts"] >= 700 and seen["free loops"] >= 1, seen
    assert seen["odd totals"] >= 100 and set(range(1, 9)) <= seen["m"], seen


def test_wirtinger_handles_free_loops():
    d = disjoint_union(fixtures.load("unknot"), fixtures.load("unknot"))
    pres = wirtinger(d)
    series = magnus_expand(pres, 1, 2)
    assert longitude_series(pres, series, 1) == ONE
    assert longitude_series(pres, series, 2) == ONE


# ---------------------------------------------------------------------------
# linking numbers


def test_linking_frozen_values():
    assert linking_number(fixtures.load("hopf+"), 1, 2) == 1
    assert linking_number(mirror(fixtures.load("hopf+")), 1, 2) == -1
    assert linking_number(fixtures.load("whitehead"), 1, 2) == 0
    bor = fixtures.load("borromean")
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert linking_number(bor, i, j) == 0


def test_linking_is_symmetric():
    d = fixtures.load("hopf+")
    assert linking_number(d, 1, 2) == linking_number(d, 2, 1)


def test_linking_rejects_bad_components():
    d = fixtures.load("hopf+")
    with pytest.raises(ValueError):
        linking_number(d, 1, 1)
    with pytest.raises(ValueError):
        linking_number(d, 1, 3)


def test_expansion_and_longitude_reject_bad_components():
    # the same refusal as linking_number, triple_linking and arf
    pres = wirtinger(fixtures.load("borromean"))
    for i, j in ((1, 9), (0, 2), (4, 1)):
        with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
            magnus_expand(pres, i, j)
    with pytest.raises(ValueError, match="needs two distinct components"):
        magnus_expand(pres, 1, 1)
    series = magnus_expand(pres, 1, 2)
    for comp in (0, 4, 9):
        with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
            longitude_series(pres, series, comp)
    with pytest.raises(ValueError, match=r"component 4 out of range 1\.\.3"):
        triple_linking(fixtures.load("borromean"), 1, 4, 2)


def test_linking_number_matches_the_crossing_scan():
    # the walk's pair totals against the scan in tests/util.py, in both
    # pair orders, on planar hosts (walks, braid closures and the random
    # codes of sound slots that pass the Euler count); the scan refuses
    # an odd total, which no planar code has, and parsing refuses every
    # other random code
    rng = random.Random(47)
    hosts = walked_hosts(5)
    for _ in range(100):
        strands = rng.randint(2, 4)
        hosts.append(braid_closure(
            [rng.choice((1, -1)) * rng.randint(1, strands - 1)
             for _ in range(rng.randint(1, 8))], strands))
    hosts += [random_code(rng, rng.randint(1, 8)) for _ in range(400)]
    seen = {"values": 0, "nonzero": 0, "refused": 0}
    for d in hosts:
        if not euler_ok(d):
            with pytest.raises(DiagramStructureError,
                               match="not a planar diagram$"):
                parse_diagram(render_diagram(d))
            seen["refused"] += 1
            continue
        want = dict(linking_numbers(d))
        for (i, j), lk in want.items():
            for p, q in ((i, j), (j, i)):
                assert linking_number(d, p, q) == lk, \
                    (render_diagram(d), p, q)
            seen["values"] += 1
            seen["nonzero"] += lk != 0
    assert min(seen.values()) >= 30, seen


def test_linking_rejects_odd_crossing_totals():
    # two circles meeting in a single crossing close up combinatorially
    # but cannot be drawn in the plane; the face count at parse notices
    with pytest.raises(DiagramStructureError) as exc:
        parse_diagram("components 2\nx + 1 1 2 2\na 1 1\na 2 2\n")
    assert exc.value.violations == [
        "1 faces for 1 crossings in one connected part, not 3: "
        "not a planar diagram"]


# ---------------------------------------------------------------------------
# expansion


def test_expansion_exact_on_borromean():
    pres = wirtinger(fixtures.load("borromean"))
    for i, j in itertools.permutations((1, 2, 3), 2):
        magnus_expand(pres, i, j)


def test_expansion_gate_fires_on_linked_input(monkeypatch):
    # a pair with lk != 0 is refused before any expansion: its series
    # does not close, though its longitude still reads lk in degree one
    d = fixtures.load("hopf+")
    pres = wirtinger(d)
    assert longitude_series(pres, magnus_expand(pres, 1, 2), 2)[1] == 1

    def refuse(*args):
        raise AssertionError("a linked pair was expanded")
    monkeypatch.setattr("lzero.invariants.magnus_expand", refuse)
    with pytest.raises(InvariantUndefinedError) as exc:
        sato_levine(d, 1, 2)
    assert (exc.value.pair, exc.value.linking) == ((1, 2), 1)
    t = invariant_tuple(d)
    assert (t.linking, t.triple, t.sato_levine) == ({(1, 2): 1}, None, None)


def test_longitude_degree_one_reads_linking():
    # against the crossing scan, a route outside the walk
    for name in ("hopf+", "whitehead", "borromean"):
        d = fixtures.load(name)
        pres, lk = wirtinger(d), dict(linking_numbers(d))
        for i, j in itertools.permutations(range(1, d.m + 1), 2):
            series = magnus_expand(pres, j, i)
            assert longitude_series(pres, series, i)[1] == \
                lk[min(i, j), max(i, j)], (name, i, j)


# ---------------------------------------------------------------------------
# triple linking


def test_borromean_triple_linking():
    bor = fixtures.load("borromean")
    assert triple_linking(bor, 1, 2, 3) == 1


def test_triple_linking_alternates():
    bor = fixtures.load("borromean")
    base = triple_linking(bor, 1, 2, 3)
    assert triple_linking(bor, 2, 1, 3) == -base
    assert triple_linking(bor, 1, 3, 2) == -base
    assert triple_linking(bor, 2, 3, 1) == base
    assert triple_linking(bor, 3, 1, 2) == base
    assert triple_linking(bor, 3, 2, 1) == -base


def test_triple_linking_mirror_invariant():
    # each meridian inverts under reflection, so the two degree-one
    # factors in the longitude coefficient cancel sign-wise
    bor = fixtures.load("borromean")
    assert triple_linking(mirror(bor), 1, 2, 3) == triple_linking(bor, 1, 2, 3)


def test_triple_linking_vanishes_on_split_input():
    d = disjoint_union(fixtures.load("trefoil"),
                       disjoint_union(fixtures.load("unknot"),
                                      fixtures.load("unknot")))
    assert triple_linking(d, 1, 2, 3) == 0


def test_triple_linking_undefined_over_nonzero_linking():
    d = disjoint_union(fixtures.load("hopf+"), fixtures.load("unknot"))
    with pytest.raises(InvariantUndefinedError) as exc:
        triple_linking(d, 1, 2, 3)
    assert exc.value.pair == (1, 2)
    assert exc.value.linking == 1


def test_triple_linking_names_the_callers_pair():
    # components 3 and 4 form a Hopf link; inside the sublink (1, 3, 4)
    # they are numbered 2 and 3, but the error must not be.  With the
    # pair meeting in a single crossing instead, the code is refused at
    # parse.
    unknot = fixtures.load("unknot")
    d = disjoint_union(disjoint_union(unknot, unknot), fixtures.load("hopf+"))
    with pytest.raises(InvariantUndefinedError) as exc:
        triple_linking(d, 1, 3, 4)
    assert (exc.value.pair, exc.value.linking) == ((3, 4), 1)
    assert str(exc.value) == "triple linking undefined: lk(K_3,K_4)=1"
    odd = LinkDiagram(2, (Crossing(1, 1, 1, 2, 2),), {1: 1, 2: 2})
    text = render_diagram(disjoint_union(disjoint_union(unknot, unknot), odd))
    with pytest.raises(DiagramStructureError, match="not a planar diagram$"):
        parse_diagram(text)


def test_triple_linking_refuses_a_non_planar_code():
    # every signed pair total is 0 and the (1, 2) relations close, but
    # the (2, 3) relations do not: no planar diagram has this code, and
    # parsing, linking_number and triple_linking refuse it alike
    text = ("components 3\n"
            "x - 2 6 3 8\nx - 6 3 10 5\nx - 4 1 9 7\n"
            "x + 5 10 8 2\nx - 1 9 7 4\n"
            + "".join(f"a {arc} {comp}\n" for arc, comp in
                      enumerate((1, 2, 2, 1, 3, 2, 1, 2, 1, 3), 1)))
    crossings = (Crossing(-1, 2, 6, 3, 8), Crossing(-1, 6, 3, 10, 5),
                 Crossing(-1, 4, 1, 9, 7), Crossing(1, 5, 10, 8, 2),
                 Crossing(-1, 1, 9, 7, 4))
    d = LinkDiagram(3, crossings, dict(enumerate(
        (1, 2, 2, 1, 3, 2, 1, 2, 1, 3), 1)))
    assert render_diagram(d) == text
    assert set(_pair_totals(d).values()) == {0}
    for refuse in (lambda: parse_diagram(text),
                   lambda: linking_number(d, 1, 2),
                   lambda: triple_linking(d, 1, 2, 3)):
        with pytest.raises(DiagramStructureError) as exc:
            refuse()
        assert exc.value.violations == [
            "5 faces for 5 crossings in 2 connected parts, not 9: "
            "not a planar diagram"]


def test_triple_linking_needs_distinct_components():
    bor = fixtures.load("borromean")
    with pytest.raises(ValueError):
        triple_linking(bor, 1, 1, 2)


def test_triple_linking_uses_only_the_named_sublink():
    # an extra far-away hopf pair must not disturb the triple of the
    # first three components
    d = disjoint_union(fixtures.load("borromean"), fixtures.load("hopf+"))
    assert triple_linking(d, 1, 2, 3) == 1


def test_opposite_handedness_insertion_cancels():
    d_pos = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), 1)])
    d_neg = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), -1)])
    both = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), 1),
                                  ("BORROMEAN", (1, 2, 3), -1)])
    assert triple_linking(d_pos, 1, 2, 3) == 1
    assert triple_linking(d_neg, 1, 2, 3) == -1
    assert triple_linking(both, 1, 2, 3) == 0

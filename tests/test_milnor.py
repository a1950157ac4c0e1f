"""Truncated group-ring series, link group presentations, linking data."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from lzero import fixtures
from lzero.classify import representative
from lzero.construct import braid_closure, build_from_gadgets
from lzero.diagram import disjoint_union, mirror, render_diagram
from lzero.errors import (DiagramStructureError, ExpansionError,
                          InvariantUndefinedError)
from lzero.milnor import (WirtingerPresentation, linking_number,
                          longitude_series, magnus_expand, triple_linking,
                          wirtinger)
from util import (_inv2, _mul2, _pair_totals, random_class, random_code,
                  random_walk, walked_hosts, wirtinger_reference)


# ---------------------------------------------------------------------------
# two-letter series algebra (words (), i, j, ii, ij, iij)

ONE = (1, 0, 0, 0, 0, 0)
H_I = (1, 1, 0, 0, 0, 0)
H_J = (1, 0, 1, 0, 0, 0)


def test_unit_and_meridian_shapes():
    # magnus_expand pins each base overpass to its exact meridian
    pres = wirtinger(fixtures.load("borromean"))
    for i, j in ((1, 2), (1, 3), (2, 3), (3, 1)):
        series = magnus_expand(pres, i, j)
        assert series[pres.base_class[i]] == H_I
        assert series[pres.base_class[j]] == H_J
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
    pres = WirtingerPresentation(2, {1: [10], 2: [20]}, {}, {1: w, 2: w},
                                 {1: (), 2: ()}, {(1, 2): 0})
    series = magnus_expand(pres, 1, 2)
    assert dict(series) == {10: H_I, 20: H_J}
    for comp, mer in ((1, H_I), (2, H_J)):
        slow, step = ONE, (mer if w < 0 else _inv2(mer))
        for _ in range(abs(w)):
            slow = _mul2(slow, step)
        assert longitude_series(pres, series, comp) == slow, comp


# ---------------------------------------------------------------------------
# presentations


def test_wirtinger_shape():
    # generators are over-strand classes: passing over a crossing never
    # breaks a strand, so there are (arcs - crossings) of them
    for name in ("trefoil", "whitehead", "borromean"):
        d = fixtures.load(name)
        pres = wirtinger(d)
        assert len(pres.generators()) == len(d.arcs()) - len(d.crossings), name
        assert len(pres.relations) == len(d.crossings), name


def _presentation_hosts():
    """Walked hosts, representatives with m 1-8 and their R1-R3 walks,
    one with a free-loop component, and random valid codes of 1-8
    crossings."""
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


_ATTRIBUTES = ("arc_class", "class_comp", "base_class", "relations",
               "letters", "writhe", "gauss", "segment", "steps")


def test_one_walk_matches_the_multi_pass_presentation():
    # every attribute of the one-walk presentation, the views built on
    # demand included, against the cycle / consumer / Gauss-word passes,
    # and every pair total against a plain scan of the crossings
    seen = {"hosts": 0, "free loops": 0, "odd totals": 0, "m": set()}
    for d in _presentation_hosts():
        pres, want = wirtinger(d), wirtinger_reference(d)
        for name in _ATTRIBUTES:
            assert getattr(pres, name) == getattr(want, name), \
                (name, render_diagram(d))
        assert pres.generators() == want.generators(), render_diagram(d)
        totals = _pair_totals(d)
        assert pres.totals == totals and list(pres.totals) == list(totals)
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


def test_linking_rejects_odd_crossing_totals():
    # two circles meeting in a single crossing close up combinatorially
    # but cannot be drawn in the plane; the crossing count must notice
    from lzero.diagram import parse_diagram
    d = parse_diagram("components 2\nx + 1 1 2 2\na 1 1\na 2 2\n")
    with pytest.raises(DiagramStructureError):
        linking_number(d, 1, 2)


# ---------------------------------------------------------------------------
# expansion and its exactness gate


def test_expansion_exact_on_borromean():
    pres = wirtinger(fixtures.load("borromean"))
    for i, j in itertools.permutations((1, 2, 3), 2):
        magnus_expand(pres, i, j)


def test_expansion_gate_fires_on_linked_input():
    pres = wirtinger(fixtures.load("hopf+"))
    with pytest.raises(ExpansionError):
        magnus_expand(pres, 1, 2)
    series = magnus_expand(pres, 1, 2, require_exact=False)
    assert longitude_series(pres, series, 2)[1] == 1


def test_longitude_degree_one_reads_linking():
    for name in ("hopf+", "whitehead", "borromean"):
        d = fixtures.load(name)
        pres = wirtinger(d)
        for i, j in itertools.permutations(range(1, d.m + 1), 2):
            series = magnus_expand(pres, j, i, require_exact=False)
            assert longitude_series(pres, series, i)[1] == \
                linking_number(d, i, j), (name, i, j)


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


def test_triple_linking_names_the_callers_odd_pair():
    # components 3 and 4 meet in a single crossing; inside the sublink
    # (1, 3, 4) they are numbered 2 and 3, but the error must not be
    from lzero.diagram import parse_diagram
    odd = parse_diagram("components 2\nx + 1 1 2 2\na 1 1\na 2 2\n")
    unknot = fixtures.load("unknot")
    d = disjoint_union(disjoint_union(unknot, unknot), odd)
    with pytest.raises(DiagramStructureError) as exc:
        triple_linking(d, 1, 3, 4)
    assert exc.value.violations[0].startswith(
        "components 3 and 4 cross an odd signed total of 1;")


def test_triple_linking_refuses_a_non_planar_code():
    # every linking number is 0 and the (1, 2) relations close, but the
    # (2, 3) relations do not: no planar diagram has this code
    from lzero.diagram import parse_diagram
    d = parse_diagram("components 3\n"
                      "x - 2 6 3 8\nx - 6 3 10 5\nx - 4 1 9 7\n"
                      "x + 5 10 8 2\nx - 1 9 7 4\n"
                      + "".join(f"a {arc} {comp}\n" for arc, comp in
                                enumerate((1, 2, 2, 1, 3, 2, 1, 2, 1, 3), 1)))
    assert [linking_number(d, *p) for p in ((1, 2), (1, 3), (2, 3))] == \
        [0, 0, 0]
    with pytest.raises(ExpansionError, match="components 2 and 3"):
        triple_linking(d, 1, 2, 3)


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
    d_pos, _ = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), 1)])
    d_neg, _ = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), -1)])
    both, _ = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), 1),
                                     ("BORROMEAN", (1, 2, 3), -1)])
    assert triple_linking(d_pos, 1, 2, 3) == 1
    assert triple_linking(d_neg, 1, 2, 3) == -1
    assert triple_linking(both, 1, 2, 3) == 0

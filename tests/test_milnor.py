"""Truncated group-ring series, link group presentations, linking data."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzero import fixtures
from lzero.construct import braid_closure, build_from_gadgets
from lzero.diagram import disjoint_union, mirror
from lzero.errors import (DiagramStructureError, ExpansionError,
                          InvariantUndefinedError)
from lzero.milnor import (MagnusSeries, linking_number, longitude_series,
                          magnus_expand, relation_defects, triple_linking,
                          wirtinger)


# ---------------------------------------------------------------------------
# series algebra (degree <= 2 truncation)


def test_unit_and_meridian_shapes():
    one = MagnusSeries.unit()
    assert one.coefficient(()) == 1
    assert one.lin_dict() == {} and one.quad_dict() == {}
    mer = MagnusSeries.meridian(3)
    assert mer.coefficient(()) == 1
    assert mer.lin_dict() == {3: 1}


def test_product_is_noncommutative_at_degree_two():
    a, b = MagnusSeries.meridian(1), MagnusSeries.meridian(2)
    ab, ba = a.mul(b), b.mul(a)
    assert ab.coefficient((1, 2)) == 1 and ab.coefficient((2, 1)) == 0
    assert ba.coefficient((2, 1)) == 1 and ba.coefficient((1, 2)) == 0
    assert ab.lin_dict() == ba.lin_dict() == {1: 1, 2: 1}


def test_meridian_powers():
    m = MagnusSeries.meridian(1)
    cube = m.power(3)
    assert cube.lin_dict() == {1: 3}
    assert cube.coefficient((1, 1)) == 3  # C(3, 2)
    inv = m.power(-1)
    assert inv == m.inverse()
    assert inv.lin_dict() == {1: -1}
    assert inv.coefficient((1, 1)) == 1


def _series(draw_lin, draw_quad):
    return MagnusSeries.make(1, lin=draw_lin, quad=draw_quad)


@given(lin=st.dictionaries(st.integers(1, 3), st.integers(-4, 4), max_size=3),
       quad=st.dictionaries(
           st.tuples(st.integers(1, 3), st.integers(1, 3)),
           st.integers(-4, 4), max_size=4))
@settings(max_examples=80, deadline=None)
def test_inverse_round_trip(lin, quad):
    s = _series(lin, quad)
    assert s.mul(s.inverse()) == MagnusSeries.unit()
    assert s.inverse().mul(s) == MagnusSeries.unit()


@given(lin=st.dictionaries(st.integers(1, 3), st.integers(-3, 3), max_size=3),
       exp=st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_power_matches_repeated_multiplication(lin, exp):
    s = _series(lin, {})
    direct = s.power(exp)
    slow = MagnusSeries.unit()
    step = s if exp >= 0 else s.inverse()
    for _ in range(abs(exp)):
        slow = slow.mul(step)
    assert direct == slow


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


def test_wirtinger_handles_free_loops():
    d = fixtures.load("unknot")
    pres = wirtinger(d)
    series = magnus_expand(pres)
    lon = longitude_series(pres, series, 1)
    assert lon == MagnusSeries.unit()


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
    series = magnus_expand(pres)
    assert relation_defects(pres, series) == []


def test_expansion_gate_fires_on_linked_input():
    pres = wirtinger(fixtures.load("hopf+"))
    with pytest.raises(ExpansionError):
        magnus_expand(pres)
    series = magnus_expand(pres, require_exact=False)
    assert relation_defects(pres, series)


def test_longitude_degree_one_reads_linking():
    for name in ("hopf+", "whitehead", "borromean"):
        d = fixtures.load(name)
        pres = wirtinger(d)
        series = magnus_expand(pres, require_exact=False)
        for i in range(1, d.m + 1):
            lon = longitude_series(pres, series, i)
            for j in range(1, d.m + 1):
                if j == i:
                    continue
                assert lon.coefficient((j,)) == linking_number(d, i, j), (name, i, j)


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

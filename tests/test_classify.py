"""The classification group, diagram -> class, class -> diagram."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzero import fixtures
from lzero.classify import (MAX_REP_CROSSINGS, ZeroSolveClass, class_add,
                            class_gadgets, class_json, class_neg, classify,
                            identity_class, is_zero_solvable, parse_class,
                            render_class, representative)
from lzero.construct import build_from_gadgets, stack_crossings
from lzero.diagram import sublink
from lzero.errors import (DiagramParseError, NotClassifiableError,
                          ResourceLimitError)
from lzero.invariants import component_pairs, component_triples
from lzero.moves import apply_move
from util import (CLASP_SITE, assert_sound, clasp_pair, disjoint_union,
                  mirror, project_class, random_class, random_walk, relabel,
                  relabel_class, reverse_component)


# ---------------------------------------------------------------------------
# the group


def classes_strategy(m):
    return st.builds(
        ZeroSolveClass,
        st.just(m),
        st.tuples(*[st.integers(0, 1)] * m),
        st.tuples(*[st.integers(-5, 5)] * len(component_triples(m))),
        st.tuples(*[st.integers(0, 1)] * len(component_pairs(m))))


def test_class_shape_validation():
    with pytest.raises(ValueError):
        ZeroSolveClass(0, (), (), ())
    with pytest.raises(ValueError):
        ZeroSolveClass(2, (0,), (), (0,))           # a too short
    with pytest.raises(ValueError):
        ZeroSolveClass(2, (0, 2), (), (0,))         # a not a bit
    with pytest.raises(ValueError):
        ZeroSolveClass(3, (0, 0, 0), (1,), (0, 0))  # c too short
    with pytest.raises(ValueError, match="^c entries must be 0 or 1$"):
        ZeroSolveClass(2, (0, 0), (), (2,))         # c not a bit
    with pytest.raises(ValueError, match="^b entries must be integers$"):
        ZeroSolveClass(3, (0, 0, 0), (1.5,), (0, 0, 0))


@given(g=classes_strategy(3), h=classes_strategy(3), k=classes_strategy(3))
@settings(max_examples=60, deadline=None)
def test_group_axioms(g, h, k):
    e = identity_class(3)
    assert class_add(g, e) == g
    assert class_add(g, h) == class_add(h, g)
    assert class_add(class_add(g, h), k) == class_add(g, class_add(h, k))
    assert class_add(g, class_neg(g)) == e


@given(g=classes_strategy(3))
@settings(max_examples=60, deadline=None)
def test_doubling_kills_exactly_the_classes_without_b(g):
    # the triples span the Z summands, the bits the Z_2 summands
    e = identity_class(3)
    doubled = class_add(g, g)
    if any(g.b):
        assert doubled != e
        assert class_add(doubled, doubled) != e
    else:
        assert doubled == e


def test_add_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        class_add(identity_class(2), identity_class(3))


# ---------------------------------------------------------------------------
# text and JSON forms


def test_render_frozen_strings():
    assert render_class(identity_class(1)) == "m=1; a=0; b=; c="
    g = ZeroSolveClass(2, (1, 0), (), (1,))
    assert render_class(g) == "m=2; a=1,0; b=; c=1"
    h = ZeroSolveClass(3, (0, 0, 0), (-2,), (0, 1, 0))
    assert render_class(h) == "m=3; a=0,0,0; b=-2; c=0,1,0"


@given(g=classes_strategy(3))
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(g):
    assert parse_class(render_class(g)) == g


def test_parse_accepts_loose_spacing_and_field_order():
    assert parse_class("m=2;a=1,0;b=;c=1") == ZeroSolveClass(2, (1, 0), (), (1,))
    assert parse_class(" m=2 ; a=1,0 ; b= ; c=1 ") == \
        ZeroSolveClass(2, (1, 0), (), (1,))
    assert parse_class("a=0; b=; c=; m=1") == identity_class(1)


@pytest.mark.parametrize("text", [
    "", "m=2", "m=x; a=0,0; b=; c=0", "m=2; a=0; b=; c=0",
    "m=2; a=0,0; b=1; c=0", "m=2; a=0,2; b=; c=0",
    "m=2; a=0,0; b=; c=0; d=1", "m=2; m=2; a=0,0; b=; c=0",
])
def test_parse_rejects_malformed_classes(text):
    with pytest.raises(DiagramParseError):
        parse_class(text)


def test_parse_names_a_bad_integer_list():
    with pytest.raises(DiagramParseError, match="^bad integer list '1.5'$"):
        parse_class("m=3; a=0,0,0; b=1.5; c=0,0,0")


def test_parse_refuses_a_short_many_component_class_quickly():
    # the entry counts come from binomials, not from listing the triples
    text = "m=400; a=" + ",".join(["0"] * 400) + "; b=; c="
    start = time.perf_counter()
    with pytest.raises(DiagramParseError) as exc:
        parse_class(text)
    assert time.perf_counter() - start < 0.2
    assert str(exc.value) == "b needs 10586800 entries, got 0"


def test_positive_triples_render_with_their_sign():
    g = ZeroSolveClass(3, (0, 0, 0), (2,), (0, 0, 0))
    assert render_class(g) == "m=3; a=0,0,0; b=+2; c=0,0,0"
    assert parse_class(render_class(g)) == g


def test_class_json_shape():
    g = ZeroSolveClass(3, (1, 0, 0), (2,), (0, 0, 1))
    assert class_json(g) == {
        "m": 3,
        "a": [1, 0, 0],
        "b": {"(1,2,3)": 2},
        "c": {"(1,2)": 0, "(1,3)": 0, "(2,3)": 1},
    }


# ---------------------------------------------------------------------------
# diagrams -> classes


def test_classify_fixtures():
    assert classify(fixtures.load("unknot")) == identity_class(1)
    assert classify(fixtures.load("trefoil")) == ZeroSolveClass(1, (1,), (), ())
    assert classify(fixtures.load("fig8")) == ZeroSolveClass(1, (1,), (), ())
    assert classify(fixtures.load("whitehead")) == \
        ZeroSolveClass(2, (0, 0), (), (1,))
    assert classify(fixtures.load("borromean")) == \
        ZeroSolveClass(3, (0, 0, 0), (1,), (0, 0, 0))


def test_classify_gate():
    with pytest.raises(NotClassifiableError) as exc:
        classify(fixtures.load("hopf+"))
    assert exc.value.pair == (1, 2) and exc.value.linking == 1


def test_trefoil_and_fig8_agree_here():
    # genuinely different knots, same coarse class
    assert classify(fixtures.load("trefoil")) == \
        classify(fixtures.load("fig8"))


def test_whitehead_mirror_is_equivalent():
    # parity forgets the sign of the pair coefficient
    w = fixtures.load("whitehead")
    assert classify(w) == classify(mirror(w))


def test_solvable_reports():
    r = is_zero_solvable(fixtures.load("unknot"))
    assert r.solvable and r.grope_class_2 and r.whitney_tower_order_2
    assert r.obstruction is None

    r = is_zero_solvable(fixtures.load("hopf+"))
    assert not r.solvable
    assert r.obstruction == "lk(K_1,K_2)=1"

    r = is_zero_solvable(fixtures.load("trefoil"))
    assert r.obstruction == "Arf(K_1)=1"

    r = is_zero_solvable(fixtures.load("borromean"))
    assert r.obstruction == "mubar(1,2,3)=1"

    r = is_zero_solvable(fixtures.load("whitehead"))
    assert r.obstruction == "mubar(1,1,2,2)=1 (odd)"


def test_solvable_obstruction_scan_order():
    # Arf outranks the triple and pair readings
    d = build_from_gadgets(3, [("TREFOIL", (2,)),
                               ("BORROMEAN", (1, 2, 3), 1)])
    assert is_zero_solvable(d).obstruction == "Arf(K_2)=1"


# ---------------------------------------------------------------------------
# classes -> diagrams


def test_gadget_list_matches_coordinates():
    g = ZeroSolveClass(3, (1, 0, 0), (-2,), (0, 1, 0))
    gadgets = class_gadgets(g)
    assert gadgets == [("TREFOIL", (1,)),
                       ("BORROMEAN", (1, 2, 3), -2),
                       ("WHITEHEAD", (1, 3))]


def test_representative_round_trip_small():
    for m in (1, 2, 3):
        for g in (identity_class(m),
                  ZeroSolveClass(m, (1,) + (0,) * (m - 1),
                                 (0,) * len(component_triples(m)),
                                 (0,) * len(component_pairs(m)))):
            d = representative(g)
            assert_sound(d)
            assert classify(d) == g


def test_representative_round_trip_random():
    rng = random.Random(2024)
    for _ in range(25):
        m = rng.randint(1, 4)
        g = random_class(rng, m, b_bound=2)
        d = representative(g)
        assert_sound(d)
        assert classify(d) == g


def test_stack_crossings_count_the_built_diagram():
    """The count behind the crossing budget is exact, without building
    anything."""
    rng = random.Random(16)
    for _ in range(40):
        m = rng.randint(1, 6)
        g = random_class(rng, m, b_bound=50)
        assert (len(representative(g).crossings)
                == stack_crossings(m, class_gadgets(g))), render_class(g)


def test_representative_budget():
    """At m = 3, b = p^2 costs the dive to (1, 2, 3), 2 + 2 + 2 rows,
    and the commutator [A12^p, A23^p], 8p letters.  The largest square
    the budget lets through is built; one more is refused before
    anything is built, since its remainder adds a second commutator."""
    p = (MAX_REP_CROSSINGS - 6) // 8
    for b in (p * p, -p * p):
        d = representative(ZeroSolveClass(3, (0, 0, 0), (b,), (0, 0, 0)))
        assert len(d.crossings) == 6 + 8 * p <= MAX_REP_CROSSINGS
    for b in (p * p + 1, -p * p - 1):
        with pytest.raises(ResourceLimitError) as exc:
            representative(ZeroSolveClass(3, (0, 0, 0), (b,), (0, 0, 0)))
        assert exc.value.exit_code == 3
        assert str(exc.value).startswith(
            f"the representative of this class would have {6 + 8 * p + 8} ")


def test_large_triple_numbers_round_trip():
    # 8372 = 91 * 92 and 10^6 = 1000^2: one commutator each, plus the
    # dive of 6
    for v, crossings in ((8372, 738), (10**6, 8006)):
        for b in (v, -v):
            g = ZeroSolveClass(3, (0, 0, 0), (b,), (0, 0, 0))
            d = representative(g)
            assert len(d.crossings) == crossings
            assert classify(d) == g


def test_representative_of_identity_is_crossing_free():
    d = representative(identity_class(3))
    assert not d.crossings
    assert d.free_loops == (1, 2, 3)


def test_band_pass_preserves_the_class():
    d, site = clasp_pair(), CLASP_SITE
    g = classify(d)
    assert g == identity_class(2)
    assert classify(apply_move(d, site)) == g


def test_stacking_realizes_addition():
    rng = random.Random(5)
    for _ in range(10):
        g = random_class(rng, 3, b_bound=1)
        h = random_class(rng, 3, b_bound=1)
        stacked = build_from_gadgets(3, class_gadgets(g) + class_gadgets(h))
        assert classify(stacked) == class_add(g, h)


def test_sublink_classifies_to_projection():
    rng = random.Random(9)
    for _ in range(10):
        g = random_class(rng, 4, b_bound=1)
        d = representative(g)
        keep = sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 3)))
        assert classify(sublink(d, keep)) == project_class(g, keep)


def test_disjoint_union_classifies_blockwise():
    t = fixtures.load("trefoil")
    w = fixtures.load("whitehead")
    g = classify(disjoint_union(t, w))
    assert g == ZeroSolveClass(3, (1, 0, 0), (0,), (0, 0, 1))


def test_component_reversal_negates_its_triples():
    """Reversing component c negates exactly the triples that contain c
    and keeps a and c; the mirror of the all-reversed diagram classifies
    to ``class_neg``.  On seeded representatives at m = 2 to 5 and on
    the end of a seeded walk from each."""
    rng = random.Random(17)
    flipped = 0
    for m in (2, 3, 4, 5) * 10:
        g = random_class(rng, m, b_bound=1)
        d = representative(g)
        walk = [w for _, w in random_walk(
            d, rng, 6, max_crossings=len(d.crossings) + 4)]
        for host in [d] + walk[-1:]:
            c = rng.randint(1, m)
            b = tuple(-x if c in t else x
                      for x, t in zip(g.b, component_triples(m)))
            flipped += b != g.b
            assert classify(reverse_component(host, c)) == ZeroSolveClass(
                m, g.a, b, g.c), (render_class(g), c)
            for comp in range(1, m + 1):
                host = reverse_component(host, comp)
            assert classify(mirror(host)) == class_neg(g), render_class(g)
    assert flipped >= 40, flipped


def test_component_relabelling_permutes_the_class():
    """Renaming the components by a permutation moves a and c with
    them, and the triple on the sorted image of (i, j, k) is b_ijk times
    the sign of the permutation that sorts the image.  On seeded
    representatives with |b| <= 50, so that each triple position sees
    both signs of the commutator gadget."""
    rng = random.Random(18)
    moved = 0
    for m in (3, 4, 5, 6) * 5:
        g = random_class(rng, m, b_bound=50)
        images = list(range(1, m + 1))
        rng.shuffle(images)
        perm = dict(zip(range(1, m + 1), images))
        want = relabel_class(g, perm)
        moved += want.b != g.b
        assert classify(relabel(representative(g), perm)) == want, (
            render_class(g), perm)
    assert moved >= 15, moved

"""Diagram builders: braid closures and the gadget splicing machinery."""

import hashlib
import importlib.util
import itertools
import math
import random
from pathlib import Path

import pytest

from lzero import fixtures
from lzero.classify import (ZeroSolveClass, class_gadgets, classify,
                            render_class, representative)
from lzero.construct import (_tangle, braid_closure, build_from_gadgets,
                             stack_crossings)
from lzero.conway import conway_polynomial
from lzero.diagram import render_diagram, validate
from lzero.invariants import sato_levine
from lzero.milnor import linking_number, triple_linking
from lzero.moves import apply_move, enumerate_sites
from util import (assert_sound, clasp_pair, climbing_build, disjoint_union,
                  random_class)


# ---------------------------------------------------------------------------
# braid closures


def test_closure_shape():
    d = braid_closure((1, -2, 1), 3)
    assert len(d.crossings) == 3
    assert_sound(d)


def test_closure_of_empty_word_is_an_unlink():
    d = braid_closure((), 3)
    assert d.m == 3
    assert not d.crossings
    assert d.free_loops == (1, 2, 3)


def test_untouched_strands_close_into_loops():
    d = braid_closure((1,), 3)
    assert d.m == 2
    assert d.free_loops and len(d.crossings) == 1


@pytest.mark.parametrize("word,strands", [
    ((0,), 2), ((2,), 2), ((-3,), 3), ((1,), 0),
])
def test_closure_rejects_bad_words(word, strands):
    with pytest.raises(ValueError):
        braid_closure(word, strands)


def test_fixtures_come_from_braid_words():
    assert fixtures.load("trefoil") == braid_closure((1, 1, 1), 2)
    assert fixtures.load("hopf+") == braid_closure((1, 1), 2)
    assert fixtures.load("fig8") == braid_closure((1, -2, 1, -2), 3)
    assert fixtures.load("whitehead") == braid_closure((-1, 2, -1, 2, -1), 3)
    assert fixtures.load("borromean") == braid_closure((1, -2, 1, -2, 1, -2), 3)


# ---------------------------------------------------------------------------
# gadget calibration: each insertion moves exactly one coordinate


def test_trefoil_gadget_sets_one_arf_bit():
    d = build_from_gadgets(2, [("TREFOIL", (1,))])
    assert classify(d) == ZeroSolveClass(2, (1, 0), (), (0,))
    d = build_from_gadgets(2, [("TREFOIL", (2,))])
    assert classify(d) == ZeroSolveClass(2, (0, 1), (), (0,))


def test_whitehead_gadget_sets_one_pair_bit():
    d = build_from_gadgets(3, [("WHITEHEAD", (1, 3))])
    assert classify(d) == ZeroSolveClass(3, (0, 0, 0), (0,), (0, 1, 0))
    assert sato_levine(d, 1, 3) == 1
    assert linking_number(d, 1, 3) == 0


def test_borromean_gadget_signs():
    """The gadget carries its triple number v, either sign."""
    for v in (1, -1, 2, -2, 3, -7, 12, 35, -100):
        d = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), v)])
        assert triple_linking(d, 1, 2, 3) == v
        assert classify(d) == ZeroSolveClass(3, (0, 0, 0), (v,), (0, 0, 0))


def test_conway_z4_of_a_triple_number_is_its_square():
    """For three components with vanishing linking numbers the z^4
    coefficient of the Conway polynomial is mubar(123)^2 (Levine), and
    the Conway engine shares no code with the Milnor battery: so the
    commutator gadget has |b| = |v| by a second route."""
    rng = random.Random(64)
    values = [1, -1, 2, -2, 400, -400]
    values += [rng.choice((1, -1)) * rng.randint(3, 400) for _ in range(14)]
    for v in values:
        g = ZeroSolveClass(3, (0, 0, 0), (v,), (0, 0, 0))
        assert conway_polynomial(representative(g)).coefficient(4) == v * v, v


def test_a_triple_number_costs_its_two_commutators():
    # v = +1 is the Borromean braid; any other v is [A12^p, A23^q] with
    # p = isqrt(|v|), then [A12, A23^r] for the remainder r
    assert _tangle(("BORROMEAN", (1, 2, 3), 1)).word == (1, -2, 1, -2, 1, -2)
    assert _tangle(("BORROMEAN", (1, 2, 3), -1)).word == (-1, -1, 2, 2,
                                                          1, 1, -2, -2)
    for v in (-1, 2, 3, -5, 99, 100, -101, 8372, 10**6):
        p = math.isqrt(abs(v))
        q, r = divmod(abs(v), p)
        word = _tangle(("BORROMEAN", (1, 2, 3), v)).word
        assert len(word) == 4 * (p + q) + (4 * (1 + r) if r else 0), v


def test_gadgets_on_far_components_are_sound():
    # movers must detour over every intermediate row without tangling
    for m in (3, 4, 5):
        d = build_from_gadgets(m, [("WHITEHEAD", (1, m))])
        assert_sound(d)
        g = classify(d)
        assert g.a == (0,) * m
        assert sum(g.c) == 1


def test_a_trefoil_adds_three_crossings():
    # a one-strand gadget is spliced where its strand is, so only the
    # word is left
    for m in range(1, 9):
        for comp in range(1, m + 1):
            gadget = ("TREFOIL", (comp,))
            d = build_from_gadgets(m, [gadget])
            assert len(d.crossings) == stack_crossings(m, [gadget]) == 3


def test_gadget_sizes_do_not_depend_on_m():
    # the dive and the way home stop at the lowest participant's row;
    # rows below it cost nothing
    for m in range(1, 6):
        comps = range(1, m + 1)
        gadgets = [("TREFOIL", (c,)) for c in comps]
        gadgets += [("WHITEHEAD", pair)
                    for pair in itertools.combinations(comps, 2)]
        gadgets += [("BORROMEAN", triple, v)
                    for triple in itertools.combinations(comps, 3)
                    for v in (1, -1, 5, -12)]
        for gadget in gadgets:
            sizes = [len(build_from_gadgets(n, [gadget]).crossings)
                     for n in (m, m + 3)]
            counts = [stack_crossings(n, [gadget]) for n in (m, m + 3)]
            assert sizes[0] == sizes[1] == counts[0] == counts[1], gadget


# ---------------------------------------------------------------------------
# lazy transport


MIXED_STACK = [
    ("TREFOIL", (3,)), ("BORROMEAN", (4, 1, 2), -1), ("WHITEHEAD", (1, 3)),
    ("BORROMEAN", (1, 3, 4), 1), ("TREFOIL", (1,))]


def _core(gadgets) -> int:
    """The crossings of the gadgets' own tangle words."""
    return sum(len(_tangle(g).word) for g in gadgets)


def _random_stack(rng: random.Random, m: int) -> list:
    gadgets = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(("TREFOIL", "WHITEHEAD", "BORROMEAN")[:m])
        arity = {"TREFOIL": 1, "WHITEHEAD": 2, "BORROMEAN": 3}[kind]
        gadget = (kind, tuple(rng.sample(range(1, m + 1), arity)))
        if kind == "BORROMEAN":
            gadget += (rng.choice((1, -1)) * rng.randint(1, 50),)
        gadgets += [gadget] * rng.randint(1, 3)
    return gadgets


def test_lazy_transport_keeps_the_conway_polynomial():
    """Every transport is isotopic to a climb home and the next dive,
    so the link is the climbing builder's, not just one in its class."""
    rng = random.Random(61)
    stacks = [(4, MIXED_STACK)]
    stacks += [(m, class_gadgets(random_class(rng, m, b_bound=1)))
               for m in (2, 3, 4) for _ in range(8)]
    for m, gadgets in stacks:
        assert (conway_polynomial(build_from_gadgets(m, gadgets))
                == conway_polynomial(climbing_build(m, gadgets))), gadgets


def test_lazy_transport_keeps_the_class():
    rng = random.Random(62)
    for m in range(2, 9):
        g = random_class(rng, m, b_bound=1)
        gadgets = class_gadgets(g)
        assert classify(build_from_gadgets(m, gadgets)) == g
        assert classify(climbing_build(m, gadgets)) == g


def test_stack_crossings_count_every_build():
    """The count is exact, and every build passes the full
    validation, face count included."""
    rng = random.Random(63)
    for _ in range(30):
        m = rng.randint(1, 10)
        g = random_class(rng, m)
        d = representative(g)
        assert len(d.crossings) == stack_crossings(m, class_gadgets(g))
        assert validate(d) == [], render_class(g)
    for _ in range(200):
        m = rng.randint(1, 8)
        gadgets = _random_stack(rng, m)
        d = build_from_gadgets(m, gadgets)
        assert len(d.crossings) == stack_crossings(m, gadgets), gadgets
        assert validate(d) == [], gadgets


def test_stack_crossings_count_every_triple_number():
    """The closed-form count matches the build for every |v| <= 2000 at
    m = 3, with the sign alternating, and the written-out word for the
    other sign; the dive to (1, 2, 3) is 6 crossings."""
    for n in range(1, 2001):
        v = n if n % 2 else -n
        gadgets = [("BORROMEAN", (1, 2, 3), v)]
        built = build_from_gadgets(3, gadgets)
        assert len(built.crossings) == stack_crossings(3, gadgets), v
        gadget = ("BORROMEAN", (1, 2, 3), -v)
        assert stack_crossings(3, [gadget]) == 6 + len(_tangle(gadget).word)


def test_representatives_stay_within_twice_their_core():
    for m in (4, 8, 12, 16):
        gadgets = class_gadgets(random_class(random.Random(m), m))
        assert len(build_from_gadgets(m, gadgets).crossings) <= 2 * _core(gadgets)


def test_the_seeded_m20_class_builds_and_round_trips():
    g = random_class(random.Random(20), 20)
    d = representative(g)
    assert len(d.crossings) == 16782 <= 2 * _core(class_gadgets(g))
    assert classify(d) == g


# sha256 of the bytes of the bundled ``.lz`` files, in ``fixtures.NAMES``
# order.  They are braid closures, which no gadget transport touches.
FIXTURES_SHA256 = (
    "5ff9d2a600f35d33f50da42763fd0a87831d39aa91f018b0c8b6212d5422a023")


def test_fixture_files_are_pinned():
    folder = Path(fixtures.__file__).parent
    digest = hashlib.sha256()
    for name in fixtures.NAMES:
        digest.update((folder / f"{name}.lz").read_bytes())
    assert digest.hexdigest() == FIXTURES_SHA256


# sha256 of every output of ``_construction_outputs``.  A change that
# alters the construction bytes on purpose records the new digest here
# and says so in CHANGES.md.
CONSTRUCTION_SHA256 = (
    "951ea9194b32031fd77f6e44c5eaff6349c5dac3076d20885aeb66744b646961")

BUILD_FIXTURES = (Path(__file__).resolve().parents[1] / "scripts"
                  / "build_fixtures.py")


def _construction_outputs():
    """Rendered closures of 1-6 strands (empty words and untouched
    strands included), seeded representatives for m = 1..8 and one
    mixed gadget stack."""
    rng = random.Random(1103)
    for _ in range(1000):
        strands = rng.randint(1, 6)
        word = ()
        if strands > 1:
            top = rng.randint(1, strands - 1)
            word = tuple(rng.choice((1, -1)) * rng.randint(1, top)
                         for _ in range(rng.randint(0, 10)))
        yield render_diagram(braid_closure(word, strands))
    for m in range(1, 9):
        g = random_class(rng, m, b_bound=1)
        yield render_class(g)
        yield render_diagram(representative(g))
    yield render_diagram(build_from_gadgets(4, MIXED_STACK))


def test_construction_bytes_are_pinned():
    digest = hashlib.sha256()
    for text in _construction_outputs():
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == CONSTRUCTION_SHA256

    spec = importlib.util.spec_from_file_location("build_fixtures",
                                                  BUILD_FIXTURES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = script.fixture_diagrams()
    on_disk = sorted(p.stem for p in script.OUT.glob("*.lz"))
    assert on_disk == sorted(built)
    for name, d in built.items():
        want = script.fixture_text(name, d).encode("utf-8")
        assert (script.OUT / f"{name}.lz").read_bytes() == want, name


def test_gadget_argument_validation():
    with pytest.raises(ValueError):
        build_from_gadgets(2, [("TREFOIL", (1, 1))])      # repeated comp
    with pytest.raises(ValueError):
        build_from_gadgets(2, [("WHITEHEAD", (1, 3))])    # out of range
    for v in (0, 1.0, 2.5, "1", None):
        with pytest.raises(ValueError, match="triple number"):
            build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), v)])
        with pytest.raises(ValueError, match="triple number"):
            stack_crossings(3, [("BORROMEAN", (1, 2, 3), v)])
    for kind in ("WAT", "CLASP"):
        with pytest.raises(ValueError, match="unknown gadget kind"):
            build_from_gadgets(2, [(kind, (1, 2))])
    for gadget in [("TREFOIL", (1, 2)), ("WHITEHEAD", (1,)),
                   ("WHITEHEAD", (1, 2, 3)), ("BORROMEAN", (1, 2), 1),
                   ("BORROMEAN", (1, 2, 3, 4), 1)]:
        with pytest.raises(ValueError, match="arity"):
            build_from_gadgets(4, [gadget])


def test_gadget_components_may_come_unsorted():
    a = build_from_gadgets(3, [("WHITEHEAD", (3, 1))])
    b = build_from_gadgets(3, [("WHITEHEAD", (1, 3))])
    assert render_diagram(a) == render_diagram(b)


def test_random_gadget_stacks_are_sound():
    # every band-pass site of a stack beside the clasp pair stays sound
    rng = random.Random(31)
    for _ in range(20):
        m = rng.randint(2, 5)
        gadgets = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("TREFOIL", "WHITEHEAD", "BORROMEAN"))
            if kind == "TREFOIL":
                gadgets.append((kind, (rng.randint(1, m),)))
            elif kind == "WHITEHEAD":
                gadgets.append((kind, tuple(rng.sample(range(1, m + 1), 2))))
            elif m >= 3:
                gadgets.append((kind, tuple(rng.sample(range(1, m + 1), 3)),
                                rng.choice((1, -1))))
        d = disjoint_union(build_from_gadgets(m, gadgets), clasp_pair())
        assert_sound(d)
        sites = enumerate_sites(d, "BANDPASS")
        assert sites
        for site in sites:
            assert_sound(apply_move(d, site))


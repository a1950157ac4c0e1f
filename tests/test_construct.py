"""Diagram builders: braid closures and the gadget splicing machinery."""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from lzero import fixtures
from lzero.classify import (ZeroSolveClass, classify, identity_class,
                            representative)
from lzero.construct import (band_clasp_diagram, braid_closure,
                             build_from_gadgets)
from lzero.diagram import render_diagram
from lzero.invariants import sato_levine
from lzero.milnor import linking_number, triple_linking
from lzero.moves import apply_move
from util import assert_sound, random_class


# ---------------------------------------------------------------------------
# braid closures


def test_closure_shape():
    d = braid_closure((1, -2, 1), 3, name="demo")
    assert len(d.crossings) == 3
    assert d.name == "demo"
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
    d, sites = build_from_gadgets(2, [("TREFOIL", (1,))])
    assert sites == ()
    assert classify(d) == ZeroSolveClass(2, (1, 0), (), (0,))
    d, _ = build_from_gadgets(2, [("TREFOIL", (2,))])
    assert classify(d) == ZeroSolveClass(2, (0, 1), (), (0,))


def test_whitehead_gadget_sets_one_pair_bit():
    d, _ = build_from_gadgets(3, [("WHITEHEAD", (1, 3))])
    assert classify(d) == ZeroSolveClass(3, (0, 0, 0), (0,), (0, 1, 0))
    assert sato_levine(d, 1, 3) == 1
    assert linking_number(d, 1, 3) == 0


def test_borromean_gadget_signs():
    pos, _ = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), 1)])
    neg, _ = build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), -1)])
    assert triple_linking(pos, 1, 2, 3) == 1
    assert triple_linking(neg, 1, 2, 3) == -1
    assert classify(neg).b == (-1,)


def test_clasp_gadget_is_invisible_to_the_battery():
    d, sites = build_from_gadgets(2, [("CLASP", (1, 2))])
    assert classify(d) == identity_class(2)
    assert len(sites) == 1
    assert_sound(apply_move(d, sites[0]))


def test_one_band_pass_site_per_clasp():
    d, sites = build_from_gadgets(3, [("CLASP", (1, 2)), ("TREFOIL", (3,)),
                                      ("CLASP", (2, 3))])
    assert len(sites) == 2
    moved = d
    for site in sites:
        moved = apply_move(moved, site)
    assert_sound(moved)
    assert classify(moved) == classify(d)


def test_gadgets_on_far_components_are_sound():
    # movers must detour over every intermediate row without tangling
    for m in (3, 4, 5):
        d, _ = build_from_gadgets(m, [("WHITEHEAD", (1, m))])
        assert_sound(d)
        g = classify(d)
        assert g.a == (0,) * m
        assert sum(g.c) == 1


# sha256 of every output of ``_construction_outputs``.  A change that
# alters the construction bytes on purpose records the new digest here
# and says so in CHANGES.md.
CONSTRUCTION_SHA256 = (
    "efb0a627d97c627fa398a8736dcf59819786c6c9140c5a709547938b8542860d")

BUILD_FIXTURES = (Path(__file__).resolve().parents[1] / "scripts"
                  / "build_fixtures.py")


def _construction_outputs():
    """Rendered closures of 1-6 strands (empty words and untouched
    strands included), seeded representatives for m = 1..8 and one
    mixed gadget stack with its band-pass sites."""
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
        d = representative(random_class(rng, m, b_bound=1))
        yield d.name
        yield render_diagram(d)
    d, sites = build_from_gadgets(4, [
        ("CLASP", (2, 4)), ("TREFOIL", (3,)), ("BORROMEAN", (4, 1, 2), -1),
        ("WHITEHEAD", (1, 3)), ("CLASP", (1, 2)), ("BORROMEAN", (1, 3, 4), 1),
        ("TREFOIL", (1,))])
    yield render_diagram(d)
    yield repr(sites)


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
    with pytest.raises(ValueError):
        build_from_gadgets(3, [("BORROMEAN", (1, 2, 3), 0)])
    with pytest.raises(ValueError):
        build_from_gadgets(2, [("WAT", (1,))])
    for gadget in [("TREFOIL", (1, 2)), ("WHITEHEAD", (1,)),
                   ("WHITEHEAD", (1, 2, 3)), ("BORROMEAN", (1, 2), 1),
                   ("BORROMEAN", (1, 2, 3, 4), 1), ("CLASP", (1, 2, 3))]:
        with pytest.raises(ValueError, match="arity"):
            build_from_gadgets(4, [gadget])


def test_gadget_components_may_come_unsorted():
    a, _ = build_from_gadgets(3, [("WHITEHEAD", (3, 1))])
    b, _ = build_from_gadgets(3, [("WHITEHEAD", (1, 3))])
    assert render_diagram(a) == render_diagram(b)


def test_random_gadget_stacks_are_sound():
    rng = random.Random(31)
    for _ in range(20):
        m = rng.randint(2, 5)
        gadgets = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("TREFOIL", "WHITEHEAD", "BORROMEAN", "CLASP"))
            if kind == "TREFOIL":
                gadgets.append((kind, (rng.randint(1, m),)))
            elif kind in ("WHITEHEAD", "CLASP"):
                gadgets.append((kind, tuple(rng.sample(range(1, m + 1), 2))))
            elif m >= 3:
                gadgets.append((kind, tuple(rng.sample(range(1, m + 1), 3)),
                                rng.choice((1, -1))))
        d, sites = build_from_gadgets(m, gadgets)
        assert_sound(d)
        for site in sites:
            d = apply_move(d, site)
        assert_sound(d)


def test_band_clasp_diagram_helper():
    d, site = band_clasp_diagram()
    assert d.m == 2
    assert site.kind == "BANDPASS"
    assert_sound(apply_move(d, site))

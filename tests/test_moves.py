"""Local rewrites: site grammar, pattern checking, invariance smoke tests."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lzero import diagram, fixtures, moves
from lzero.classify import representative
from lzero.construct import braid_closure
from lzero.conway import conway_polynomial
from lzero.diagram import validate
from lzero.errors import (DiagramParseError, DiagramStructureError,
                          MovePatternError)
from lzero.milnor import linking_number
from lzero.moves import (KINDS, MoveSite, apply_move, enumerate_sites,
                         parse_site, render_site)
from util import (CLASP_SITE, assert_sound, clasp_pair, corpus,
                  disjoint_union, euler_ok, face_walks_reference,
                  random_class, random_code, random_walk,
                  render_site_reference, walked_hosts)


# ---------------------------------------------------------------------------
# site grammar


@pytest.mark.parametrize("text", [
    "R1- crossings=1",
    "R1+ arcs=3 sign=+ variant=under",
    "R2+ arcs=1,4 sign=- variant=anti",
    "R2- crossings=2,5",
    "R3 crossings=1,2,3",
    "BANDPASS crossings=1,2,3,4",
])
def test_site_text_round_trip(text):
    site = parse_site(text)
    assert render_site(site) == text
    assert parse_site(render_site(site)) == site


@given(kind=st.sampled_from(KINDS),
       crossings=st.lists(st.integers(1, 99), max_size=4),
       arcs=st.lists(st.integers(1, 99), max_size=2),
       sign=st.sampled_from([-1, 0, 1]),
       variant=st.sampled_from(["", "under", "over", "par", "anti"]))
@settings(max_examples=80, deadline=None)
def test_site_round_trip_random(kind, crossings, arcs, sign, variant):
    site = MoveSite(kind, tuple(crossings), tuple(arcs), sign, variant)
    assert parse_site(render_site(site)) == site


@given(kind=st.sampled_from(KINDS),
       crossings=st.lists(st.integers(1, 999), max_size=3),
       arcs=st.lists(st.integers(1, 999), max_size=3),
       sign=st.sampled_from([-1, 0, 1]),
       variant=st.sampled_from(["", "under", "over", "par", "anti"]))
@example(kind="R1+", crossings=[], arcs=[3], sign=0, variant="under")
@example(kind="R2+", crossings=[2], arcs=[1, 4], sign=-1, variant="anti")
@example(kind="R2+", crossings=[], arcs=[1, 4], sign=1, variant="")
@example(kind="R1+", crossings=[], arcs=[7], sign=1, variant="over")
@settings(max_examples=150, deadline=None)
def test_render_site_matches_the_plain_formatter(kind, crossings, arcs,
                                                 sign, variant):
    site = MoveSite(kind, tuple(crossings), tuple(arcs), sign, variant)
    assert render_site(site) == render_site_reference(site)


def test_move_site_is_an_immutable_hashable_tuple():
    site = MoveSite("R2+", arcs=(1, 4), sign=-1, variant="anti")
    assert site == MoveSite("R2+", (), (1, 4), -1, "anti")
    assert site == ("R2+", (), (1, 4), -1, "anti")
    assert MoveSite("R1-") == MoveSite("R1-", crossings=(), arcs=(),
                                       sign=0, variant="")
    assert {site: 1}[MoveSite("R2+", (), (1, 4), -1, "anti")] == 1
    with pytest.raises(AttributeError):
        site.sign = 1
    with pytest.raises(AttributeError):
        site.extra = 1


@pytest.mark.parametrize("text", [
    "", "R9 crossings=1", "R1- crossings", "R1- crossings=x",
    "R1- crossings=0", "R1- wat=1", "R1+ sign=?",
])
def test_site_parse_rejects_garbage(text):
    with pytest.raises(DiagramParseError):
        parse_site(text)


# ---------------------------------------------------------------------------
# pattern checks


def test_r1_remove_requires_a_kink():
    t = fixtures.load("trefoil")
    with pytest.raises(MovePatternError):
        apply_move(t, MoveSite("R1-", crossings=(1,)))


def test_r2_remove_requires_a_bigon():
    t = fixtures.load("trefoil")
    with pytest.raises(MovePatternError):
        apply_move(t, MoveSite("R2-", crossings=(1, 2)))


def test_r3_requires_a_stacked_triangle():
    t = fixtures.load("trefoil")
    with pytest.raises(MovePatternError):
        apply_move(t, MoveSite("R3", crossings=(1, 2, 3)))


def test_bandpass_requires_the_band_pattern():
    b = fixtures.load("borromean")
    with pytest.raises(MovePatternError):
        apply_move(b, MoveSite("BANDPASS", crossings=(1, 2, 3, 4)))


def test_unknown_arc_in_r1_add():
    t = fixtures.load("trefoil")
    with pytest.raises(MovePatternError):
        apply_move(t, MoveSite("R1+", arcs=(99,), sign=1, variant="under"))


@pytest.mark.parametrize("site", [
    MoveSite("R1-", crossings=(1.0,)),
    MoveSite("R1-", crossings=(True,)),
    MoveSite("R2-", crossings=(1, 2.0)),
    MoveSite("R3", crossings=(1, 2, "3")),
    MoveSite("BANDPASS", crossings=("1", 2, 3, 4)),
    MoveSite("R1+", arcs=(1,), sign=True, variant="under"),
    MoveSite("R1+", arcs=(1,), sign=1.0, variant="over"),
    MoveSite("R2+", arcs=(1, 2), sign=True, variant="par"),
    MoveSite("R2+", arcs=(1, 2), sign=-1.0, variant="anti"),
], ids=repr)
def test_malformed_sites_are_refused_by_pattern(site):
    """A crossing id that is no int, or a sign that is not the int +1
    or -1, is a pattern refusal, not a traceback or a crossing with a
    bool for its sign."""
    with pytest.raises(MovePatternError):
        apply_move(fixtures.load("borromean"), site)


# ---------------------------------------------------------------------------
# applying moves


def test_r1_add_then_remove_restores_crossing_count():
    t = fixtures.load("trefoil")
    for site in enumerate_sites(t, "R1+")[:6]:
        grown = apply_move(t, site)
        assert len(grown.crossings) == len(t.crossings) + 1
        assert_sound(grown)
        kinks = enumerate_sites(grown, "R1-")
        assert kinks, "the added kink must be removable"
        back = apply_move(grown, kinks[0])
        assert len(back.crossings) == len(t.crossings)
        assert conway_polynomial(back) == conway_polynomial(t)


def test_r2_add_then_remove_restores_crossing_count():
    h = fixtures.load("hopf+")
    for site in enumerate_sites(h, "R2+")[:6]:
        grown = apply_move(h, site)
        assert len(grown.crossings) == len(h.crossings) + 2
        assert_sound(grown)
        bigons = enumerate_sites(grown, "R2-")
        assert bigons, "the added bigon must be removable"
        back = apply_move(grown, bigons[0])
        assert len(back.crossings) == len(h.crossings)
        assert conway_polynomial(back) == conway_polynomial(h)


def test_r3_preserves_everything_countable():
    d = braid_closure((1, 1, 1, 1, 2), 3)
    assert d.m == 2
    sites = enumerate_sites(d, "R3")
    assert sites
    moved = apply_move(d, sites[0])
    assert_sound(moved)
    assert len(moved.crossings) == len(d.crossings)
    assert moved.m == d.m
    assert conway_polynomial(moved) == conway_polynomial(d)
    assert linking_number(moved, 1, 2) == linking_number(d, 1, 2)


def test_bandpass_switches_exactly_the_four_crossings():
    d, site = clasp_pair(), CLASP_SITE
    moved = apply_move(d, site)
    assert_sound(moved)
    assert len(moved.crossings) == len(d.crossings)
    for cid in site.crossings:
        assert moved.crossing(cid) == d.crossing(cid).switched()
    for cid in range(1, len(d.crossings) + 1):
        if cid not in site.crossings:
            assert moved.crossing(cid) == d.crossing(cid)
    # after the switch the other band is on top, so the inverse site
    # names the same square starting from the old under band
    c1, c2, c3, c4 = site.crossings
    inverse = MoveSite("BANDPASS", crossings=(c2, c3, c4, c1))
    assert inverse in enumerate_sites(moved, "BANDPASS")
    assert apply_move(moved, inverse) == d


def test_moves_never_change_component_count():
    rng = random.Random(7)
    for name, d in corpus():
        if not d.crossings:
            continue
        for site, walked in random_walk(d, rng, steps=20):
            assert walked.m == d.m, (name, site)
            assert_sound(walked)


def test_enumerated_sites_all_apply():
    """Every offered site must pass its own pattern check, and give a
    sound diagram that keeps the Euler count: a sample of every kind's
    sites, on the corpus and along seeded walks."""
    rng = random.Random(11)
    for d in walked_hosts(19, steps=8):
        for kind in KINDS:
            sites = enumerate_sites(d, kind)
            for site in rng.sample(sites, min(len(sites), 10)):
                assert_sound(apply_move(d, site))


def _accepted_faces(d, kind, k):
    """The k-gon faces at k distinct crossings that apply_move accepts."""
    polygons = set()
    for walk in face_walks_reference(d):
        corners = {idx + 1 for _, idx, _, _ in walk}
        if len(walk) == k and len(corners) == k:
            polygons.add(tuple(sorted(corners)))
    accepted = []
    for corners in sorted(polygons):
        site = MoveSite(kind, crossings=corners)
        try:
            apply_move(d, site)
        except MovePatternError:
            continue
        accepted.append(site)
    return accepted


def test_enumerated_sites_are_all_accepted_faces():
    """R1-, R2- and R3 sites are exactly the monogons, bigons and
    triangles whose pattern apply_move accepts."""
    for d in walked_hosts(13):
        for kind, k in (("R1-", 1), ("R2-", 2), ("R3", 3)):
            assert enumerate_sites(d, kind) == _accepted_faces(d, kind, k)


def test_bigon_sites_are_the_accepted_faces_on_split_and_random_codes():
    """Every opposite-sign bigon bounds a 2-gon face (see
    ``diagram.bigons``), so the R2- list is the face listing on split
    unions and on random planar codes too."""
    rng = random.Random(43)
    pool = [d for _, d in corpus()]
    pool += [representative(random_class(rng, m, b_bound=1))
             for m in (2, 3, 4)]
    hosts = [disjoint_union(rng.choice(pool), rng.choice(pool))
             for _ in range(30)]
    while len(hosts) < 230:
        d = random_code(rng, rng.randint(2, 6))
        if not validate(d):
            hosts.append(d)
    listed = 0
    for d in hosts:
        sites = enumerate_sites(d, "R2-")
        assert sites == _accepted_faces(d, "R2-", 2), sites
        listed += len(sites)
    assert listed >= 50, listed


# ---------------------------------------------------------------------------
# pinned site lists


def _pin_hosts():
    """The fixtures, seeded representatives at m = 2, 3, 4, each of
    those with one added curl, and the clasp pair."""
    rng = random.Random(41)
    hosts = [fixtures.load(name) for name in fixtures.NAMES]
    hosts += [representative(random_class(rng, m, b_bound=1))
              for m in (2, 3, 4)]
    hosts += [apply_move(d, enumerate_sites(d, "R1+")[0])
              for d in list(hosts) if d.crossings]
    hosts.append(clasp_pair())
    return hosts


# kind -> (site count, sha256 of one ``render_site`` line per site) over
# the hosts of ``_pin_hosts``, in order.
_SITE_PINS = {
    "R1+": (1840, "f96cfa727af09d4a8070ab2050c1676663defb232ae08753c0c68123dbb8cfc8"),
    "R1-": (8, "98fa6e3f53f9c816c8458c708abe9bd23f2d2c6877719322adab575744d8efc0"),
    "R2+": (3666, "4f3b9456a8d290d39e697499e646dfafe75687e66ee277d0897eda8779023b5c"),
    "R2-": (8, "7ea276b29df333982fe1c7e3e54df61c03c86c4289f089ead4ffc32e68b7bc90"),
    "R3": (28, "9ac8d79878706905198666c723d3fb61c79d5fc42040da4b5ff7f834cb706c4e"),
    "BANDPASS": (4, "d06b5d98bbf29e193e7aa1288d022fc32a0c5d3995df7f17657f045558386937"),
}


def test_site_lists_are_pinned():
    """The set and the order of every kind's sites stay fixed."""
    hosts = _pin_hosts()
    for kind in KINDS:
        sites = [s for d in hosts for s in enumerate_sites(d, kind)]
        text = "".join(render_site(s) + "\n" for s in sites)
        got = (len(sites), hashlib.sha256(text.encode()).hexdigest())
        assert got == _SITE_PINS[kind], kind
        for site in sites:
            assert parse_site(render_site(site)) == site


# ---------------------------------------------------------------------------
# every rewrite keeps validity: ``apply_move`` certifies its patch only


def test_every_listed_site_keeps_planarity():
    """On the corpus and seeded walks from it, every site that
    ``enumerate_sites`` lists, of every kind, gives a code that the
    whole ``validate`` passes, the Euler count included; and of every
    ordered crossing pair, ``apply_move`` accepts as R2- just the pairs
    that sort to a listed R2- site."""
    rng = random.Random(29)
    hosts = [d for _, d in corpus() if d.crossings]
    for d in list(hosts):
        hosts += [w for _, w in random_walk(
            d, rng, 6, max_crossings=len(d.crossings) + 4)]
    applied = dict.fromkeys(KINDS, 0)
    for d in hosts:
        for kind in KINDS:
            for site in enumerate_sites(d, kind):
                assert validate(apply_move(d, site)) == [], render_site(site)
                applied[kind] += 1
        accepted = set()
        for pair in itertools.permutations(range(1, len(d.crossings) + 1), 2):
            try:
                apply_move(d, MoveSite("R2-", crossings=pair))
            except MovePatternError:
                continue
            accepted.add(tuple(sorted(pair)))
        assert accepted == {s.crossings for s in enumerate_sites(d, "R2-")}
    assert min(applied.values()) >= 10, applied


def _mutants(rng, d, patch):
    """``patch`` and one-field mutations of it: the sign or one slot of
    a crossing it puts in, or the component, the entry or the key of an
    arc it brings in."""
    kill, put, arcs = patch
    yield patch
    for idx, cr in put.items():
        field = rng.choice([f.name for f in dataclasses.fields(cr)])
        value = getattr(cr, field)
        if field == "sign":
            choices = (-value, 0, 2, True)
        else:
            choices = (value + 1, d.max_arc() + 9, float(value), True,
                       rng.choice((cr.under_in, cr.under_out, cr.over_in,
                                   cr.over_out)),
                       rng.choice(list(d.arc_components)))
        value = rng.choice([v for v in choices if v is not value])
        yield kill, {**put, idx: dataclasses.replace(cr, **{field: value})}, arcs
    for a, c in arcs.items():
        c = rng.choice([c % d.m + 1, 0, d.m + 1, True])
        if c != arcs[a] or type(c) is bool:
            yield kill, put, {**arcs, a: c}
        rest = {b: c for b, c in arcs.items() if b != a}
        yield kill, put, rest  # a fresh arc with no component
        yield kill, put, {**rest, float(a): arcs[a]}  # a key that is no int


def test_the_patch_check_refuses_exactly_where_the_slot_check_does(monkeypatch):
    """On walked hosts, a sample of each kind's sites: the patch each
    rewrite returns, and one-field mutations of it.  The local check
    falls back to ``_check_slots`` exactly where ``_violations`` finds
    a fault in the result."""
    real = diagram._check_slots
    fallbacks = []
    monkeypatch.setattr(diagram, "_check_slots",
                        lambda r: fallbacks.append(r) or real(r))
    rng = random.Random(37)
    seen = {"accepted": 0, "refused": 0}
    for d in walked_hosts(17):
        for kind in KINDS:
            rewrite, _ = moves._kind(kind)
            sites = enumerate_sites(d, kind)
            for site in rng.sample(sites, min(len(sites), 4)):
                for patch in _mutants(rng, d, rewrite(d, site)):
                    fallbacks.clear()
                    try:
                        result = diagram._patched(d, *patch)
                    except DiagramStructureError:
                        refused = True
                    else:
                        refused = diagram._violations(result) != []
                    assert bool(fallbacks) == refused, (kind, patch)
                    seen["refused" if refused else "accepted"] += 1
    assert min(seen.values()) >= 200, seen


# ---------------------------------------------------------------------------
# R2+ keeps planarity


@pytest.mark.parametrize("name", ["trefoil", "fig8", "borromean"])
def test_r2_add_accepts_exactly_the_enumerated_sites(name):
    """Of every (arc pair, sign, variant) choice, apply_move accepts
    just the face-certified ones, and each result stays planar."""
    d = fixtures.load(name)
    accepted = set()
    for arcs in itertools.permutations(sorted(d.arc_components), 2):
        for sign, variant in itertools.product((1, -1), ("par", "anti")):
            site = MoveSite("R2+", arcs=arcs, sign=sign, variant=variant)
            try:
                moved = apply_move(d, site)
            except MovePatternError:
                continue
            assert euler_ok(moved), site
            accepted.add(site)
    assert accepted == set(enumerate_sites(d, "R2+"))


# ---------------------------------------------------------------------------
# R3 keeps planarity


def test_r3_accepts_exactly_the_enumerated_sites():
    """Of every sorted crossing triple of seeded braid closures,
    apply_move accepts just the triangles that are faces, and each
    result stays planar."""
    rng = random.Random(5)
    for _ in range(300):
        strands = rng.randint(3, 5)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(3, 10)))
        d = braid_closure(word, strands)
        accepted = []
        for tri in itertools.combinations(range(1, len(d.crossings) + 1), 3):
            site = MoveSite("R3", crossings=tri)
            try:
                moved = apply_move(d, site)
            except MovePatternError:
                continue
            assert euler_ok(moved), (word, site)
            accepted.append(site)
        assert accepted == enumerate_sites(d, "R3"), word

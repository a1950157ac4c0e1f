"""Diagram records: text format, structural validation, planarity."""

import itertools
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzero import fixtures
from lzero.construct import braid_closure
from lzero.conway import _reduce, conway_polynomial
from lzero.diagram import (Crossing, LinkDiagram, check_valid,
                           component_cycles, crossing_graph_parts,
                           disjoint_union, face_through, face_walks, faces,
                           mirror, parse_diagram, render_diagram, sublink,
                           validate)
from lzero.errors import (DiagramParseError, DiagramStructureError,
                          MovePatternError)
from lzero.milnor import linking_number
from lzero.moves import _R2_SHAPE, MoveSite, apply_move, enumerate_sites
from util import (assert_sound, corpus, euler_ok, face_through_reference,
                  face_walks_reference, random_code, walked_hosts)


def test_parse_render_round_trip_on_fixtures():
    for name in fixtures.NAMES:
        d = fixtures.load(name)
        again = parse_diagram(render_diagram(d), name=name)
        assert again == d, name
        # rendering is deterministic
        assert render_diagram(again) == render_diagram(d)


def test_crossing_switch_is_an_involution():
    cr = Crossing(1, 1, 2, 3, 4)
    assert cr.switched() == Crossing(-1, 3, 4, 1, 2)
    assert cr.switched().switched() == cr


def test_parse_reports_line_and_column():
    bad = "components 1\nx + 1 2 3 oops\n"
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram(bad)
    assert exc.value.line == 2
    assert "oops" in str(exc.value)


@pytest.mark.parametrize("text", [
    "a 1 1\n",                          # no components record
    "components 1\ncomponents 1\n",     # duplicate header
    "components 0\n",                   # not positive
    "components 1\nq 1\n",              # unknown record
    "components 1\na 1 1\na 1 1\n",     # arc assigned twice
    "components 1\nx + 1 2 3\n",        # wrong arity
    "components 1\nx ? 1 2 3 4\n",      # bad sign token
])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(DiagramParseError):
        parse_diagram(text)


def test_structure_check_catches_dangling_arc():
    # arc 2 is produced but never consumed, arc 5 consumed but never made
    text = "components 1\nx + 1 2 5 1\na 1 1\na 2 1\na 5 1\n"
    with pytest.raises(DiagramStructureError):
        parse_diagram(text)


def _edited(name, crossings=None, **changes):
    """A fixture with some crossings' fields and some record fields
    replaced, left unvalidated."""
    d = fixtures.load(name)
    if crossings:
        edited = list(d.crossings)
        for cid, fields in crossings.items():
            edited[cid - 1] = replace(edited[cid - 1], **fields)
        changes["crossings"] = tuple(edited)
    return replace(d, **changes)


# One crafted diagram per check of ``validate``, with the full list it
# gives: the fast path of ``_violations`` must keep these texts and
# their order.
_VALIDATE_TEXTS = [
    (_edited("trefoil", {1: {"over_in": 2}}),
     ["arc 2 consumed by both crossing 1 and crossing 1",
      "arc 1 is produced but never consumed"]),
    (_edited("trefoil", {2: {"under_in": 2}}),
     ["arc 2 consumed by both crossing 1 and crossing 2",
      "arc 4 is produced but never consumed"]),
    (_edited("trefoil", {2: {"under_out": 3}}),
     ["arc 3 produced by both crossing 1 and crossing 2",
      "arc 5 is consumed but never produced"]),
    (_edited("trefoil", {2: {"over_in": 0}}),
     ["crossing 2: arc ids must be positive, got 0"]),
    (_edited("trefoil", {3: {"under_out": -1}}),
     ["crossing 3: arc ids must be positive, got -1"]),
    (_edited("trefoil", {2: {"under_in": "4"}}),
     ["crossing 2: arc ids must be positive, got '4'"]),
    (_edited("trefoil", {2: {"sign": 2}}),
     ["crossing 2: sign must be +1 or -1, got 2"]),
    (_edited("trefoil", {1: {"sign": 2}, 2: {"under_in": 2},
                         3: {"over_in": 0}}),
     ["crossing 1: sign must be +1 or -1, got 2",
      "arc 2 consumed by both crossing 1 and crossing 2",
      "crossing 3: arc ids must be positive, got 0"]),
    (_edited("trefoil", arc_components={a: 1 for a in range(1, 6)}),
     ["arc 6 has no 'a' component assignment"]),
    (_edited("trefoil", arc_components={a: 1 for a in range(1, 8)}),
     ["arc 7 is assigned to component 1 but appears in no crossing"]),
    (_edited("hopf+", arc_components={1: 1, 2: 2, 3: 2, 4: 2}),
     ["arc cycle starting at arc 1 mixes components [1, 2]",
      "crossing 1: over strand changes component",
      "crossing 2: under strand changes component"]),
    (_edited("trefoil", m=2, free_loops=(2,),
             arc_components={1: 1, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}),
     ["arc cycle starting at arc 1 mixes components [1, 2]",
      "crossing 1: under strand changes component",
      "crossing 2: over strand changes component"]),
    (_edited("hopf+", arc_components={1: 1, 2: 3, 3: 3, 4: 1}),
     ["arc 2: component 3 out of range 1..2",
      "arc 3: component 3 out of range 1..2"]),
    (_edited("hopf+", free_loops=(0,)),
     ["free loop component 0 out of range 1..2"]),
    (_edited("hopf+", m=1, arc_components={a: 1 for a in range(1, 5)}),
     ["component 1 is realized by 2 circles"]),
    (_edited("trefoil", m=2),
     ["component 2 has no circle (cycle or free loop)"]),
]


@pytest.mark.parametrize("d, texts", _VALIDATE_TEXTS)
def test_validate_texts_are_pinned(d, texts):
    assert validate(d) == texts


def test_comments_and_blank_lines_are_ignored():
    text = "# header comment\n\ncomponents 1  # trailing\no 1\n"
    d = parse_diagram(text)
    assert d.m == 1 and d.free_loops == (1,)


def test_corpus_is_sound():
    for name, d in corpus():
        assert check_valid(d) is d
        assert euler_ok(d), name


def test_component_cycles_partition_the_arcs():
    d = fixtures.load("borromean")
    cycles = component_cycles(d)
    assert len(cycles) == 3
    seen = sorted(a for cyc in cycles for a in cyc)
    assert seen == sorted(d.arcs())


def test_free_loop_fixture():
    d = fixtures.load("unknot")
    assert d.m == 1
    assert not d.crossings
    assert d.free_loops == (1,)


def test_self_writhe():
    assert fixtures.load("trefoil").self_writhe(1) == 3
    assert mirror(fixtures.load("trefoil")).self_writhe(1) == -3
    # hopf crossings join different components: no self-writhe
    assert fixtures.load("hopf+").self_writhe(1) == 0


def test_mirror_is_an_involution_and_flips_signs():
    for name, d in corpus():
        assert mirror(mirror(d)) == d, name
    t = fixtures.load("trefoil")
    assert [c.sign for c in mirror(t).crossings] == [-c.sign for c in t.crossings]


def test_mirror_preserves_soundness():
    for name, d in corpus():
        assert_sound(mirror(d))


def test_sublink_of_borromean_pairs_unlinks():
    d = fixtures.load("borromean")
    for keep in ((1, 2), (1, 3), (2, 3)):
        s = sublink(d, keep)
        assert s.m == 2
        assert validate(s) == []
        assert linking_number(s, 1, 2) == 0


def test_sublink_renumbers_components():
    d = fixtures.load("borromean")
    s = sublink(d, (3,))
    assert s.m == 1
    assert set(s.arc_components.values()) <= {1} or s.free_loops == (1,)


def test_sublink_keep_all_changes_nothing_essential():
    d = fixtures.load("whitehead")
    s = sublink(d, (1, 2))
    assert s.m == d.m
    assert len(s.crossings) == len(d.crossings)


def test_disjoint_union_is_sound_and_additive():
    t = fixtures.load("trefoil")
    h = fixtures.load("hopf+")
    u = disjoint_union(t, h)
    assert u.m == t.m + h.m
    assert len(u.crossings) == len(t.crossings) + len(h.crossings)
    assert_sound(u)
    # components of the second summand are shifted up
    assert linking_number(u, 2, 3) == 1


def test_faces_satisfy_euler_count_on_corpus():
    for name, d in corpus():
        if not d.crossings:
            continue
        assert len(faces(d)) == len(d.crossings) + 2 * crossing_graph_parts(d), name


def test_faces_agree_with_face_walks_and_face_through():
    """On the corpus and seeded walks: ``faces`` lists the darts of
    ``face_walks``; ``face_through`` gives, for every dart, its face
    rotated to start there; and the Euler count holds."""
    for d in walked_hosts(23):
        found = faces(d)
        assert found == [[corner[0] for corner in walk]
                         for walk in face_walks(d)]
        for face in found:
            for k, dart in enumerate(face):
                assert face_through(d, dart) == face[k:] + face[:k]
        assert euler_ok(d)


def _sites_from_walks(d, walks):
    """R2+, R2- and R3 sites read off ``walks`` the way the site finders
    read the faces: R2+ from ordered dart pairs on distinct arcs of one
    face, R2- and R3 from the 2- and 3-gons at distinct crossings that
    ``apply_move`` accepts."""
    sites = {"R2+": [MoveSite("R2+", (), (ax, ay), *_R2_SHAPE[fx, fy])
                     for walk in walks
                     for ((ax, fx), *_), ((ay, fy), *_)
                     in itertools.permutations(walk, 2) if ax != ay]}
    for kind, k in (("R2-", 2), ("R3", 3)):
        polygons = {tuple(sorted({idx + 1 for _, idx, _, _ in walk}))
                    for walk in walks if len(walk) == k}
        sites[kind] = []
        for corners in sorted(c for c in polygons if len(c) == k):
            try:
                apply_move(d, MoveSite(kind, crossings=corners))
            except MovePatternError:
                continue
            sites[kind].append(MoveSite(kind, crossings=corners))
    return sites


def test_face_layer_matches_the_dict_walk():
    """The dart table against the tuple-keyed walk it replaced:
    ``faces``, ``face_walks``, ``face_through`` at every dart, the R2+,
    R2- and R3 sites, and the face count behind ``conway``'s planarity
    refusal, on the corpus, seeded walks and 1200 random valid codes of
    1-8 crossings (most of them not planar)."""
    rng = random.Random(16)
    hosts = [d for _, d in corpus()] + walked_hosts(31)
    hosts += [random_code(rng, rng.randint(1, 8)) for _ in range(1200)]
    for d in hosts:
        walks = face_walks_reference(d)
        assert face_walks(d) == walks
        assert faces(d) == [[c[0] for c in walk] for walk in walks]
        for arc in d.arc_components:
            for dart in ((arc, True), (arc, False)):
                assert face_through(d, dart) == face_through_reference(d, dart)
        for kind, sites in _sites_from_walks(d, walks).items():
            assert enumerate_sites(d, kind) == sites, kind
        r = _reduce(d)
        if r.crossings and not r.free_loops and crossing_graph_parts(r) == 1:
            n, found = len(r.crossings), len(face_walks_reference(r))
            if found != n + 2:
                with pytest.raises(DiagramStructureError) as exc:
                    conway_polynomial(d)
                assert str(exc.value) == (
                    f"{found} faces for {n} crossings in one connected "
                    f"part, not {n + 2}: not a planar diagram")


def test_face_layer_is_sized_by_crossings_not_arc_ids():
    """Arc ids near 10**15 cost nothing: faces, the Conway polynomial
    and the R2+ sites come out in milliseconds, as on the same code with
    small ids, shifted."""
    d = fixtures.load("whitehead")
    shift = 10 ** 15
    big = LinkDiagram(
        d.m, tuple(Crossing(cr.sign, *(a + shift for a in cr.arcs()))
                   for cr in d.crossings),
        {a + shift: c for a, c in d.arc_components.items()}, d.free_loops)
    assert validate(big) == []
    start = time.perf_counter()
    found = (faces(big), conway_polynomial(big), enumerate_sites(big, "R2+"))
    assert time.perf_counter() - start < 0.5
    assert found[0] == [[(a + shift, fwd) for a, fwd in face]
                        for face in faces(d)]
    assert found[1] == conway_polynomial(d)
    assert found[2] == [site._replace(arcs=tuple(a + shift for a in site.arcs))
                        for site in enumerate_sites(d, "R2+")]


def _braid_permutation_cycles(word, strands):
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for s in range(strands):
        if s in seen:
            continue
        cycles += 1
        while s not in seen:
            seen.add(s)
            s = perm[s]
    return cycles


@given(word=st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                     min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_braid_closures_are_sound(word):
    strands = max(abs(x) for x in word) + 1
    d = braid_closure(tuple(word), strands)
    assert_sound(d)
    assert d.m == _braid_permutation_cycles(word, strands)
    assert parse_diagram(render_diagram(d)) == d

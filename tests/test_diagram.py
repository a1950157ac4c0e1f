"""Diagram records: text format, structural validation, planarity."""

import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lzero
from lzero import diagram, fixtures
from lzero.classify import classify, parse_class, representative
from lzero.cli import main
from lzero.construct import braid_closure
from lzero.conway import conway_polynomial
from lzero.diagram import (Crossing, LinkDiagram, _darts, _orbits,
                           check_valid, component_cycles,
                           crossing_graph_parts, delete_crossings,
                           face_through, faces, parse_diagram,
                           render_diagram, sublink, validate)
from lzero.errors import (DiagramParseError, DiagramStructureError,
                          MovePatternError)
from lzero.milnor import linking_number, wirtinger
from lzero.moves import (_R2_SHAPE, KINDS, MoveSite, apply_move,
                         enumerate_sites)
from util import (REFUSED_CODES, assert_sound, corpus, deletion_reference,
                  disjoint_union, euler_ok, face_through_reference,
                  face_walks_reference, gated_readers, mirror, random_class,
                  random_code, walked_hosts)


def test_parse_render_round_trip_on_fixtures():
    for name in fixtures.NAMES:
        d = fixtures.load(name)
        again = parse_diagram(render_diagram(d))
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


# the column is the bad field's own, not the first match of its text
@pytest.mark.parametrize("text, line, column", [
    ("components 1\nx + 10 0 3 4\n", 2, 8),
    ("components 1\na 10 0\n", 2, 6),
])
def test_parse_reports_the_bad_fields_column(text, line, column):
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == (f"line {line}, column {column}: expected a "
                              "positive integer, got '0'")


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
    # sound slots, one component, two faces instead of six
    (LinkDiagram(1, (Crossing(-1, 8, 1, 5, 2), Crossing(-1, 2, 3, 7, 4),
                     Crossing(-1, 4, 5, 3, 6), Crossing(-1, 1, 7, 6, 8)),
                 dict.fromkeys(range(1, 9), 1)),
     ["2 faces for 4 crossings in one connected part, not 6: "
      "not a planar diagram"]),
]


@pytest.mark.parametrize("d, texts", _VALIDATE_TEXTS)
def test_validate_texts_are_pinned(d, texts):
    assert validate(d) == texts


# a bool is an int to ``isinstance`` and equals 1, but no field takes one
@pytest.mark.parametrize("d, text", [
    (_edited("trefoil", {2: {"sign": True}}),
     "crossing 2: sign must be +1 or -1, got True"),
    (_edited("trefoil", m=True),
     "component count must be a positive integer, got True"),
    (_edited("trefoil", {3: {"under_out": True}}),
     "crossing 3: arc ids must be positive, got True"),
    (_edited("trefoil", arc_components={**dict.fromkeys(range(1, 7), 1),
                                        4: True}),
     "arc 4: component True out of range 1..1"),
    (_edited("unknot", free_loops=(True,)),
     "free loop component True out of range 1..1"),
    (_edited("trefoil", arc_components={True: 1, **dict.fromkeys(range(2, 7), 1)}),
     "arc id True in the component map is not an integer"),
    (_edited("trefoil", arc_components={1.0: 1, **dict.fromkeys(range(2, 7), 1)}),
     "arc id 1.0 in the component map is not an integer"),
], ids=["sign", "m", "arc", "component", "free loop", "arc key", "float arc key"])
def test_validate_refuses_a_bool(d, text):
    assert validate(d) == [text]


_DEAD_KNOT = REFUSED_CODES["dead end"]


def test_validate_is_the_euler_count_on_sound_slots():
    """On random codes of sound slots, ``validate`` refuses exactly the
    codes that fail the Euler count of ``tests/util.py``, each with one
    face-count line, and ``check_valid`` and every public reader of a
    diagram raise it."""
    rng = random.Random(7)
    refused = 0
    for _ in range(1000):
        d = random_code(rng, rng.randint(1, 6))
        problems = validate(d)
        assert (problems == []) == euler_ok(d), render_diagram(d)
        if problems:
            refused += 1
            assert len(problems) == 1, problems
            assert problems[0].endswith(": not a planar diagram"), problems
            for name, call in [("check_valid", lambda: check_valid(d)),
                               *gated_readers(d)]:
                with pytest.raises(DiagramStructureError) as exc:
                    call()
                assert exc.value.violations == problems, name
    assert refused == 850


# Every reader meets each of ``tests/util.py``'s refused codes, the one
# whose walk from arc 1 never returns among them.  The child caps its
# address space, and the parent its time, so a walk that does not stop
# fails the test instead of hanging the suite.
_ENDLESS_WALK = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
sys.path.insert(0, sys.argv[1])
from lzero.errors import DiagramStructureError
from util import REFUSED_CODES, gated_readers
for code, d in REFUSED_CODES.items():
    for name, call in gated_readers(d):
        start = time.perf_counter()
        try:
            call()
        except DiagramStructureError as exc:
            print(code, name, time.perf_counter() - start < 1.0,
                  exc.violations)
        else:
            print(code, name, "returned")
"""


def test_unpermuted_slots_end_every_walk():
    src = os.path.dirname(os.path.dirname(lzero.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _ENDLESS_WALK, os.path.dirname(__file__)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert validate(REFUSED_CODES["endless walk"]) == [
        "arc 2 produced by both crossing 1 and crossing 3",
        "arc 1 is consumed but never produced"]
    assert done.stdout.splitlines() == [
        f"{code} {name} True {validate(d)}"
        for code, d in REFUSED_CODES.items() for name, _ in gated_readers(d)]


# 20000 one-crossing curls, each its own component, in a seeded order
# and with seeded signs: one reduction round deletes them all, and the
# 20000 strands that close among them become free loops, which must
# take one pass, not one sort per strand.
_SEPARATE_CURLS = """
import random, time
from lzero.conway import conway_polynomial
from lzero.diagram import Crossing, LinkDiagram
rng, n = random.Random(20000), 20000
crs = [Crossing(rng.choice((1, -1)), 2 * k + 1, 2 * k + 2, 2 * k + 2, 2 * k + 1)
       for k in range(n)]
rng.shuffle(crs)
d = LinkDiagram(n, tuple(crs), {a: (a + 1) // 2 for a in range(1, 2 * n + 1)})
start = time.perf_counter()
print(conway_polynomial(d).text(), time.perf_counter() - start < 2.0)
"""


def test_separate_curls_close_in_one_pass():
    src = os.path.dirname(os.path.dirname(lzero.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _SEPARATE_CURLS], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 True\n"


@pytest.mark.parametrize("name", [name for name, _ in
                                  gated_readers(_DEAD_KNOT)])
def test_an_unconsumed_arc_ends_the_walk(name):
    call = dict(gated_readers(_DEAD_KNOT))[name]
    with pytest.raises(DiagramStructureError) as err:
        call()
    assert "arc 2 is produced but never consumed" in err.value.violations


def test_each_diagram_is_validated_once(monkeypatch, tmp_path, capsys):
    """A diagram remembers passing the gate: a parsed, moved or built
    one is never checked again, and one made from it is checked on its
    first read alone.  A move certifies its patch instead of the whole
    diagram."""
    runs = []
    slot_checks = diagram._violations
    monkeypatch.setattr(diagram, "_violations",
                        lambda d: runs.append(d) or slot_checks(d))

    def count(call):
        runs.clear()
        call()
        return len(runs)

    g = parse_class("m=3; a=0,1,0; b=+1; c=0,1,0")
    assert count(lambda: classify(representative(g))) == 1
    path = tmp_path / "borromean.lz"
    path.write_text(fixtures.fixture_text("borromean"), encoding="utf-8")
    assert count(lambda: main(["classify", str(path)])) == 1
    capsys.readouterr()

    d = fixtures.load("borromean")
    assert count(lambda: [enumerate_sites(d, kind) for kind in KINDS]) == 0

    # a move certifies the patch it wrote, once, and never the whole
    # diagram: the walk runs no slot check at all
    patches = []
    fits = diagram._fits
    monkeypatch.setattr(diagram, "_fits",
                        lambda *args: patches.append(1) or fits(*args))

    def walk(k):
        e = d
        for _ in range(k):
            e = apply_move(e, enumerate_sites(e, "R1+")[-1])
            classify(e)
    for k in (1, 2, 5):
        patches.clear()
        assert count(lambda: walk(k)) == 0
        assert len(patches) == k

    for made in (replace(d), mirror(d), disjoint_union(d, d),
                 sublink(d, {1, 2}), delete_crossings(d, set())):
        assert count(lambda: [classify(made), faces(made)]) == 1
        # the flag is no field: a fresh copy compares equal
        assert replace(made) == made and "_valid" not in repr(made)


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
    assert seen == sorted(d.arc_components)


def test_free_loop_fixture():
    d = fixtures.load("unknot")
    assert d.m == 1
    assert not d.crossings
    assert d.free_loops == (1,)


def test_self_writhe():
    assert wirtinger(fixtures.load("trefoil")).writhe[1] == 3
    assert wirtinger(mirror(fixtures.load("trefoil"))).writhe[1] == -3
    # hopf crossings join different components: no self-writhe
    assert wirtinger(fixtures.load("hopf+")).writhe[1] == 0


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


def test_sublink_refuses_an_empty_or_out_of_range_keep():
    d = fixtures.load("borromean")
    with pytest.raises(ValueError, match="^sublink needs at least one component$"):
        sublink(d, set())
    with pytest.raises(ValueError, match=r"^components out of range 1\.\.3: \[0, 4\]$"):
        sublink(d, {0, 1, 4})


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


def _kill_sets(rng, d):
    """``(kill, planar)`` pairs: seeded random sets, whose results are
    often no planar code, and the curl-and-bigon and sublink sets,
    whose results stay planar."""
    n = len(d.crossings)
    for _ in range(4):
        yield set(rng.sample(range(n), rng.randint(1, n))), False
    # a round of the Conway reduction: the curls, then disjoint bigons
    kill = {idx for idx, cr in enumerate(d.crossings) if diagram.is_curl(cr)}
    for pair in diagram.bigons(d):
        if not kill.intersection(pair):
            kill.update(pair)
    yield kill, True
    comp = d.arc_components
    for c in range(1, d.m + 1):
        yield {idx for idx, cr in enumerate(d.crossings)
               if c in (comp[cr.under_in], comp[cr.over_in])}, True


def test_deletion_matches_the_component_walk():
    """``delete_crossings`` leaves the arc cycles and free loops that a
    walk of each component, dropping its passages at the killed
    crossings, predicts; the arcs keep their components, and the slots
    stay sound (the whole check passes where the code stays planar)."""
    rng = random.Random(38)
    hosts = walked_hosts(3) + [representative(random_class(rng, m, 1))
                               for m in (4, 5)]
    checked = 0
    for d in hosts:
        for kill, planar in _kill_sets(rng, d):
            cut = delete_crossings(d, kill)
            assert (validate(cut) if planar else diagram._violations(cut)) == []
            cycles, loops = deletion_reference(d, kill)
            assert diagram._cycles(cut) == cycles
            assert cut.free_loops == loops
            assert cut.arc_components == {a: d.arc_components[a]
                                          for cyc in cycles for a in cyc}
            checked += 1
    assert checked > 600


def test_faces_satisfy_euler_count_on_corpus():
    for name, d in corpus():
        if not d.crossings:
            continue
        assert len(faces(d)) == len(d.crossings) + 2 * crossing_graph_parts(d), name


def test_faces_agree_with_face_walks_and_face_through():
    """On the corpus and seeded walks: ``faces`` lists the darts of the
    reference face walks; ``face_through`` gives, for every dart, its
    face rotated to start there; and the Euler count holds."""
    for d in walked_hosts(23):
        found = faces(d)
        assert found == [[corner[0] for corner in walk]
                         for walk in face_walks_reference(d)]
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
    """The dart table against the tuple-keyed walk it replaced, on the
    corpus, seeded walks and 1200 random codes of sound slots with 1-8
    crossings (most of them not planar): the orbits of ``_darts`` and
    ``face_through`` at every dart on every host; on the planar hosts,
    ``faces``, the R2+, R2- and R3 sites, and a Conway polynomial whose
    degrees have the parity of m - 1; the other hosts are refused by
    each of those with ``validate``'s face-count line."""
    rng = random.Random(16)
    hosts = [d for _, d in corpus()] + walked_hosts(31)
    hosts += [random_code(rng, rng.randint(1, 8)) for _ in range(1200)]
    seen = {"planar": 0, "refused": 0}
    for d in hosts:
        walks = face_walks_reference(d)
        want = [[c[0] for c in walk] for walk in walks]
        arc, nxt, order = _darts(d)
        assert [[(arc[p], not p & 1) for p in face]
                for face in _orbits(nxt, order)] == want
        for a in d.arc_components:
            for dart in ((a, True), (a, False)):
                assert face_through(d, dart) == face_through_reference(d, dart)
        if euler_ok(d):
            assert faces(d) == want
            for kind, sites in _sites_from_walks(d, walks).items():
                assert enumerate_sites(d, kind) == sites, kind
            assert all((deg - d.m) % 2 for deg, _ in
                       conway_polynomial(d).coeffs), render_diagram(d)
            seen["planar"] += 1
            continue
        for refuse in (lambda: faces(d), lambda: conway_polynomial(d),
                       *(lambda kind=kind: enumerate_sites(d, kind)
                         for kind in ("R2+", "R2-", "R3"))):
            with pytest.raises(DiagramStructureError) as exc:
                refuse()
            assert exc.value.violations == validate(d)
            assert str(exc.value).endswith(": not a planar diagram")
        seen["refused"] += 1
    assert min(seen.values()) >= 200, seen


def test_face_layer_is_sized_by_crossings_not_arc_ids():
    """Arc ids near 10**15 cost nothing: faces, the Conway polynomial
    and the R2+ sites come out in milliseconds, as on the same code with
    small ids, shifted."""
    d = fixtures.load("whitehead")
    shift = 10 ** 15
    big = LinkDiagram(
        d.m, tuple(Crossing(cr.sign, *(a + shift for a in (
            cr.under_in, cr.under_out, cr.over_in, cr.over_out)))
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

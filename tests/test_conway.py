"""The one-variable polynomial: its text form, the skein primitives, the
reductions, and the determinant engine against the skein oracle."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzero import conway, fixtures
from lzero.classify import parse_class, representative
from lzero.construct import braid_closure
from lzero.conway import (ONE, ZERO, ConwayPolynomial, _reduce, canonical_key,
                          conway_polynomial, smooth_crossing, switch_crossing)
from lzero.diagram import parse_diagram, sublink, validate
from lzero.moves import apply_move, enumerate_sites
from util import (assert_sound, conway_polynomial_naive, corpus,
                  disjoint_union, mirror, random_class, random_walk)


# ---------------------------------------------------------------------------
# polynomial arithmetic and text form


def test_polynomial_round_trip_and_normalization():
    p = ConwayPolynomial.from_dict({2: 1, 0: 1, 4: 0})
    assert p.coeffs == ((0, 1), (2, 1))
    assert dict(p.coeffs) == {0: 1, 2: 1}
    assert dict(p.coeffs).get(2, 0) == 1 and dict(p.coeffs).get(4, 0) == 0


@pytest.mark.parametrize("coeffs,text", [
    ({}, "0"),
    ({0: 1}, "1"),
    ({0: -1}, "-1"),
    ({1: 1}, "z"),
    ({1: -1}, "-z"),
    ({0: 1, 2: 1}, "1 + z^2"),
    ({0: 1, 2: -1}, "1 - z^2"),
    ({1: 2, 3: -3}, "2*z - 3*z^3"),
    ({4: 1}, "z^4"),
])
def test_polynomial_text(coeffs, text):
    assert ConwayPolynomial.from_dict(coeffs).text() == text


@given(d=st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=5))
@settings(max_examples=60, deadline=None)
def test_polynomial_dict_round_trip(d):
    p = ConwayPolynomial.from_dict(d)
    assert dict(p.coeffs) == {k: v for k, v in d.items() if v != 0}


# ---------------------------------------------------------------------------
# skein primitives


def test_switch_and_smooth_shapes():
    t = fixtures.load("trefoil")
    sw = switch_crossing(t, 1)
    assert sw.crossing(1) == t.crossing(1).switched()
    assert len(sw.crossings) == len(t.crossings)
    with pytest.raises(IndexError, match="^no crossing 0; diagram has 3$"):
        switch_crossing(t, 0)
    sm = smooth_crossing(t, 1)
    assert len(sm.crossings) == len(t.crossings) - 1
    assert_sound(sm)


def test_switch_is_involutive():
    t = fixtures.load("trefoil")
    assert switch_crossing(switch_crossing(t, 2), 2) == t


# ---------------------------------------------------------------------------
# frozen values

FROZEN = {
    "unknot": "1",
    "trefoil": "1 + z^2",
    "fig8": "1 - z^2",
    "hopf+": "z",
    "whitehead": "z^3",
    "borromean": "z^4",
}


def test_frozen_fixture_polynomials():
    for name, expected in FROZEN.items():
        assert conway_polynomial(fixtures.load(name)).text() == expected, name


def test_hopf_handedness():
    assert conway_polynomial(braid_closure((-1, -1), 2)).text() == "-z"


def test_mirror_substitutes_minus_z():
    # mirroring swaps the two switched resolutions in the skein
    # recursion, which is the substitution z -> -z
    for name, d in corpus():
        p = dict(conway_polynomial(d).coeffs)
        q = dict(conway_polynomial(mirror(d)).coeffs)
        assert q == {deg: c * (-1) ** deg for deg, c in p.items()}, name


def test_split_unions_vanish():
    t = fixtures.load("trefoil")
    u = fixtures.load("unknot")
    assert conway_polynomial(disjoint_union(t, u)) == ZERO
    assert conway_polynomial(disjoint_union(t, t)) == ZERO


def test_degree_parity_matches_component_count():
    for name, d in corpus():
        p = conway_polynomial(d)
        for deg, _ in p.coeffs:
            assert deg % 2 == (d.m + 1) % 2, (name, deg)


# ---------------------------------------------------------------------------
# determinant engine vs the skein oracle


def test_determinant_agrees_with_naive_on_corpus():
    for name, d in corpus():
        if len(d.crossings) > 8:
            continue
        assert conway_polynomial(d) == conway_polynomial_naive(d), name


def test_determinant_agrees_with_naive_on_random_braids():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 7)
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(n))
        d = braid_closure(word, 3)
        assert conway_polynomial(d) == conway_polynomial_naive(d), word


def test_engine_agrees_with_oracle_on_closures_and_their_neighbours():
    # seeded 2-5-strand braid closures of up to 12 crossings, each with
    # every switch and every smoothing of it; one oracle cache per
    # closure, since the neighbours' skein trees overlap
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        strands = rng.randint(2, 5)
        n = rng.randint(1, 12)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(n))
        d = braid_closure(word, strands)
        cache: dict = {}
        cases = [(word, d)]
        for cid in range(1, n + 1):
            cases += [((word, "switch", cid), switch_crossing(d, cid)),
                      ((word, "smooth", cid), smooth_crossing(d, cid))]
        for label, e in cases:
            assert conway_polynomial(e) == conway_polynomial_naive(e, cache), \
                label
            checked += 1
    assert checked > 2000


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 101, 401])
def test_torus_links_t2n_closed_form(n):
    # nabla(T(2, n)) = sum_j C(n - 1 - j, j) z^(n - 1 - 2j)
    want = {n - 1 - 2 * j: math.comb(n - 1 - j, j)
            for j in range((n - 1) // 2 + 1)}
    assert dict(conway_polynomial(braid_closure((1,) * n, 2)).coeffs) == want


def test_m4_representative_is_fast_and_stable_under_moves():
    g = parse_class("m=4; a=0,0,0,1; b=+2,-1,-1,-2; c=0,0,0,0,0,1")
    d = representative(g)
    t0 = time.perf_counter()
    p = conway_polynomial(d)
    assert time.perf_counter() - t0 < 10.0
    # four components: odd degrees only, and the lowest is at least m - 1
    assert p.coeffs and all(deg % 2 == 1 and deg >= 3 for deg, _ in p.coeffs)
    walked = d
    for _, walked in random_walk(d, random.Random(7), 10,
                                 max_crossings=len(d.crossings) + 20):
        pass
    assert walked != d
    assert conway_polynomial(walked) == p


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7)), min_size=n,
             max_size=n), min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_sparse_determinant_matches_the_leibniz_sum(matrix):
    n = len(matrix)
    want = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        want += (-1) ** inversions * math.prod(
            matrix[i][perm[i]] for i in range(n))
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    assert conway._det(rows) == want


def test_canonical_key_is_stable_under_arc_renaming():
    t = fixtures.load("trefoil")
    # braid closures from the same word with shifted arc labels: build the
    # union then take the sublink back out, which renames everything
    from lzero.diagram import sublink
    shifted = sublink(disjoint_union(fixtures.load("unknot"), t), (2,))
    assert shifted.arc_components.keys() != t.arc_components.keys() \
        or shifted == t
    assert canonical_key(shifted) == canonical_key(t)


# ---------------------------------------------------------------------------
# batched exact reductions


def _rewrites_left(d):
    """Curls and opposite-sign bigons still present, found pairwise."""
    found = [("curl", i) for i, cr in enumerate(d.crossings)
             if cr.under_out == cr.over_in or cr.over_out == cr.under_in]
    for (i, a), (j, b) in itertools.permutations(enumerate(d.crossings), 2):
        if (a.over_out == b.over_in and a.sign == -b.sign
                and (a.under_out == b.under_in or b.under_out == a.under_in)):
            found.append(("bigon", i, j))
    return found


def _surgery_counter(monkeypatch):
    """Count the ``delete_crossings`` calls made from the Conway engine."""
    calls = []
    real = conway.delete_crossings

    def counted(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(conway, "delete_crossings", counted)
    return calls


def _stacked(d, rng, steps, max_crossings=9):
    """Apply up to ``steps`` random R1+/R2+ moves, one on top of the other."""
    for _ in range(steps):
        kind = rng.choice(("R1+", "R2+"))
        if len(d.crossings) + (1 if kind == "R1+" else 2) > max_crossings:
            break
        sites = enumerate_sites(d, kind)
        if sites:
            d = apply_move(d, rng.choice(sites))
    return d


def _stacked_corpus():
    rng = random.Random(11)
    out = []
    for name in ("unknot", "trefoil", "fig8", "hopf+", "whitehead"):
        base = fixtures.load(name)
        for trial in range(4):
            out.append((f"{name}/{trial}", _stacked(base, rng, 3)))
    return out


def _representative_sublinks():
    """Every knot and pair sublink of two seeded representatives per m."""
    rng = random.Random(5)
    for m in range(3, 9):
        for _ in range(2):
            d = representative(random_class(rng, m, 2))
            for r in (1, 2):
                for keep in itertools.combinations(range(1, m + 1), r):
                    yield f"m={m} {keep}", sublink(d, keep)


def test_reduce_reaches_a_fixpoint():
    cases = _stacked_corpus() + list(_representative_sublinks())
    assert any(_rewrites_left(d) for _, d in cases)
    for name, d in cases:
        r = _reduce(d)
        assert _rewrites_left(r) == [], name
        assert validate(r) == [], name
        assert r.m == d.m, name


def test_determinant_agrees_with_naive_after_stacked_moves():
    for name, d in _stacked_corpus():
        assert_sound(d)
        assert conway_polynomial(d) == conway_polynomial_naive(d), name


def test_curl_chain_collapses_to_a_free_loop_in_one_round(monkeypatch):
    # five curls in a row on one circle: crossing i takes arc 2i+1 in
    # under, loops through arc 2i+2 and leaves over on the next arc
    k = 5
    lines = ["components 1"]
    for i in range(k):
        nxt = 2 * i + 3 if i < k - 1 else 1
        lines.append(f"x {'+-'[i % 2]} {2 * i + 1} {2 * i + 2} "
                     f"{2 * i + 2} {nxt}")
    lines += [f"a {arc} 1" for arc in range(1, 2 * k + 1)]
    d = parse_diagram("\n".join(lines) + "\n")
    assert_sound(d)
    calls = _surgery_counter(monkeypatch)
    r = _reduce(d)
    assert calls == [k]
    assert r.crossings == () and r.free_loops == (1,)
    assert validate(r) == []
    assert conway_polynomial(d) == ONE


def test_bigons_sharing_a_crossing_take_one_per_round(monkeypatch):
    # component 1 passes over component 2 at crossings 2, 1, 3 in that
    # order (signs +, -, +), so bigons {2, 1} and {1, 3} share crossing
    # 1, and the scan meets {1, 3} first; component 2 passes over 1 at
    # crossing 4
    d = parse_diagram("components 2\n"
                      "x - 5 6 1 2\nx + 8 5 4 1\nx + 6 7 2 3\nx + 3 4 7 8\n"
                      + "".join(f"a {arc} {1 + (arc > 4)}\n"
                                for arc in range(1, 9)))
    assert_sound(d)
    assert {f[0] for f in _rewrites_left(d)} == {"bigon"}
    calls = _surgery_counter(monkeypatch)
    r = _reduce(d)
    assert calls == [2]
    assert len(r.crossings) == 2 and _rewrites_left(r) == []
    assert validate(r) == []
    assert conway_polynomial(d) == conway_polynomial_naive(d) \
        == conway_polynomial(fixtures.load("hopf+"))


def test_reduction_surgeries_stay_few(monkeypatch):
    # one surgery per round, not one per removed curl or bigon: a
    # return to rebuilding the diagram per rewrite shows up as dozens
    calls = _surgery_counter(monkeypatch)
    removed = 0
    for name, d in _representative_sublinks():
        calls.clear()
        r = _reduce(d)
        removed += len(d.crossings) - len(r.crossings)
        assert len(calls) <= 4, (name, calls)
    assert removed > 1000

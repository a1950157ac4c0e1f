"""The invariant battery and its text/JSON forms."""

import json

import pytest

from lzero import fixtures
from lzero.construct import build_from_gadgets
from lzero.diagram import disjoint_union, mirror
from lzero.errors import InvariantUndefinedError
from lzero.invariants import (arf, component_pairs, component_triples,
                              invariant_tuple, invariants_json,
                              render_invariants, sato_levine)


def test_pair_and_triple_index_orders():
    assert component_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert component_triples(4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert component_pairs(1) == []
    assert component_triples(2) == []


def test_arf_frozen_values():
    assert arf(fixtures.load("unknot"), 1) == 0
    assert arf(fixtures.load("trefoil"), 1) == 1
    assert arf(fixtures.load("fig8"), 1) == 1
    w = fixtures.load("whitehead")
    assert (arf(w, 1), arf(w, 2)) == (0, 0)
    bor = fixtures.load("borromean")
    assert tuple(arf(bor, c) for c in (1, 2, 3)) == (0, 0, 0)


def test_arf_ignores_the_other_components():
    d = disjoint_union(fixtures.load("trefoil"), fixtures.load("whitehead"))
    assert arf(d, 1) == 1
    assert arf(d, 2) == 0 and arf(d, 3) == 0


def test_arf_rejects_bad_components():
    d = fixtures.load("hopf+")
    for comp in (0, 3):
        with pytest.raises(ValueError):
            arf(d, comp)


def test_arf_is_mirror_invariant():
    for name in ("trefoil", "fig8"):
        d = fixtures.load(name)
        assert arf(mirror(d), 1) == arf(d, 1), name


def test_sato_levine_frozen_values():
    w = fixtures.load("whitehead")
    assert sato_levine(w, 1, 2) == 1
    assert sato_levine(w, 2, 1) == 1
    assert sato_levine(mirror(w), 1, 2) == -1
    bor = fixtures.load("borromean")
    for i, j in component_pairs(3):
        assert sato_levine(bor, i, j) == 0


def test_sato_levine_gate():
    h = fixtures.load("hopf+")
    with pytest.raises(InvariantUndefinedError) as exc:
        sato_levine(h, 1, 2)
    assert exc.value.pair == (1, 2) and exc.value.linking == 1
    with pytest.raises(ValueError):
        sato_levine(h, 2, 2)


def test_clasp_gadget_is_sato_levine_trivial():
    d, _ = build_from_gadgets(2, [("CLASP", (1, 2))])
    assert sato_levine(d, 1, 2) == 0


def test_whitehead_gadget_inserts_one_sato_levine_unit():
    d, _ = build_from_gadgets(2, [("WHITEHEAD", (1, 2))])
    assert sato_levine(d, 1, 2) == 1


def test_battery_on_linked_input_truncates():
    t = invariant_tuple(fixtures.load("hopf+"))
    assert t.m == 2
    assert t.linking == {(1, 2): 1}
    assert t.triple is None and t.sato_levine is None


def test_battery_on_borromean():
    t = invariant_tuple(fixtures.load("borromean"))
    assert t.linking == {(1, 2): 0, (1, 3): 0, (2, 3): 0}
    assert t.arf == (0, 0, 0)
    assert t.triple == {(1, 2, 3): 1}
    assert t.sato_levine == {(1, 2): 0, (1, 3): 0, (2, 3): 0}


def test_render_frozen_text():
    assert render_invariants(invariant_tuple(fixtures.load("whitehead"))) == (
        "m: 2\n"
        "lk(1,2): 0\n"
        "arf(1): 0\n"
        "arf(2): 0\n"
        "sl(1,2): 1\n")
    assert render_invariants(invariant_tuple(fixtures.load("hopf+"))) == (
        "m: 2\n"
        "lk(1,2): 1\n"
        "arf(1): 0\n"
        "arf(2): 0\n")
    assert "mubar(1,2,3): 1\n" in render_invariants(
        invariant_tuple(fixtures.load("borromean")))


def test_json_form_is_serializable_and_faithful():
    t = invariant_tuple(fixtures.load("borromean"))
    blob = invariants_json(t)
    assert json.loads(json.dumps(blob)) == blob
    assert blob["m"] == 3
    assert blob["triple"] == {"(1,2,3)": 1}
    assert blob["sato_levine"]["(1,2)"] == 0
    linked = invariants_json(invariant_tuple(fixtures.load("hopf+")))
    assert linked["triple"] is None and linked["sato_levine"] is None

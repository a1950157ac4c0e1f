"""Oriented link-diagram codes: parsing, validation, structural surgery.

A diagram is stored as a list of signed crossings wired together by
*arcs*.  An arc here is one oriented edge of the underlying 4-valent
graph: it is produced by exactly one output slot (``under_out`` or
``over_out``) of some crossing and consumed by exactly one input slot
(``under_in`` or ``over_in``).  Following "output slot -> paired input
slot" around the diagram partitions the arcs into disjoint cycles, one
per component.  Components with no crossings at all cannot be expressed
that way, so they are kept separately as *free loops*.

The face structure of a code follows from the crossing signs through
one face-turn rule: four darts per crossing, numbered by the slot they
enter, and the dart that leaves each corner.  The integer dart table
built with it gives ``faces``, the triangle faces the R3 finder lists
and the Conway engine's matrices; a one-face walk applies the same
rule crossing by crossing through a map from each arc to the darts at
its ends, so ``face_through`` and the R3 face check build no dart
table.  A code is a planar diagram exactly when every connected part of
its crossing graph with v crossings has v + 2 faces; ``validate``
counts them, so parsing refuses a code that no planar diagram has.

A move is a patch: the crossings it takes out and those it puts in.
The diagram it gives is certified by those two tangles alone (same
ends, joined in the same pairs; fresh inner arcs; no strand changing
component), not by a whole-diagram check, since the input passed the
gate.  A deletion puts nothing in: each strand runs straight through
the killed crossings, and a strand that closes among them becomes a
free loop.

File format (UTF-8, one record per line, ``#`` starts a comment):

    components <m>
    x <+|-> <under_in> <under_out> <over_in> <over_out>
    a <arc> <component>
    o <component>

``x`` records are implicitly numbered 1, 2, ... in file order; that
index is the crossing id used by moves and by the skein primitives.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from dataclasses import dataclass, replace

from .errors import DiagramParseError, DiagramStructureError

__all__ = [
    "Crossing",
    "LinkDiagram",
    "parse_diagram",
    "render_diagram",
    "validate",
    "check_valid",
    "component_cycles",
    "sublink",
    "faces",
]


@dataclass(frozen=True)
class Crossing:
    """One signed crossing; the four fields are arc ids."""

    sign: int
    under_in: int
    under_out: int
    over_in: int
    over_out: int

    def switched(self) -> "Crossing":
        """Same four arcs with under/over roles exchanged, sign flipped."""
        return Crossing(-self.sign, self.over_in, self.over_out,
                        self.under_in, self.under_out)


@dataclass(frozen=True)
class LinkDiagram:
    """Immutable combinatorial diagram of an oriented link.

    ``arc_components`` maps every arc id to the 1-based component that
    owns it; ``free_loops`` lists components realized as crossing-free
    circles (a multiset, though a valid diagram never repeats one).
    Every reader starts with :func:`check_valid`, which refuses a code
    that is not a planar diagram; passing is remembered in a flag that
    is no field, so ``dataclasses.replace`` and every copy start afresh.
    """

    m: int
    crossings: tuple[Crossing, ...]
    arc_components: dict[int, int]
    free_loops: tuple[int, ...] = ()
    _valid = False  # set by ``_checked`` alone; not a field

    def crossing(self, cid: int) -> Crossing:
        """Crossing by 1-based id (= position in the record list)."""
        if not 1 <= cid <= len(self.crossings):
            raise IndexError(f"no crossing {cid}; diagram has {len(self.crossings)}")
        return self.crossings[cid - 1]

    def max_arc(self) -> int:
        return max(self.arc_components, default=0)


# ---------------------------------------------------------------------------
# parsing / rendering


def parse_diagram(text: str) -> LinkDiagram:
    """Parse the line format above; raises on any syntax or structure problem."""
    m = None
    crossings = []
    arc_comp: dict[int, int] = {}
    loops: list[int] = []

    def fail(lineno, raw, field, msg):
        # at the start of the line's token number ``field``, from 0
        col = [tok.start() for tok in re.finditer(r"\S+", raw)][field] + 1
        raise DiagramParseError(msg, line=lineno, column=col)

    def want_int(lineno, raw, parts, field):
        tok = parts[field]
        try:
            v = int(tok)
        except ValueError:
            fail(lineno, raw, field, f"expected an integer, got {tok!r}")
        if v < 1:
            fail(lineno, raw, field, f"expected a positive integer, got {tok!r}")
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "components":
            if m is not None:
                fail(lineno, raw, 0, "duplicate 'components' record")
            if len(parts) != 2:
                fail(lineno, raw, 0, "'components' takes exactly one integer")
            m = want_int(lineno, raw, parts, 1)
        elif kw == "x":
            if len(parts) != 6:
                fail(lineno, raw, 0, "'x' takes sign and four arc ids")
            if parts[1] not in ("+", "-"):
                fail(lineno, raw, 1, f"sign must be '+' or '-', got {parts[1]!r}")
            sign = 1 if parts[1] == "+" else -1
            ids = [want_int(lineno, raw, parts, k) for k in range(2, 6)]
            crossings.append(Crossing(sign, *ids))
        elif kw == "a":
            if len(parts) != 3:
                fail(lineno, raw, 0, "'a' takes arc id and component id")
            arc = want_int(lineno, raw, parts, 1)
            comp = want_int(lineno, raw, parts, 2)
            if arc in arc_comp:
                fail(lineno, raw, 1, f"arc {arc} assigned to a component twice")
            arc_comp[arc] = comp
        elif kw == "o":
            if len(parts) != 2:
                fail(lineno, raw, 0, "'o' takes one component id")
            loops.append(want_int(lineno, raw, parts, 1))
        else:
            fail(lineno, raw, 0, f"unknown record type {kw!r}")

    if m is None:
        raise DiagramParseError("missing 'components' record", line=1, column=1)

    return check_valid(LinkDiagram(m, tuple(crossings), arc_comp,
                                   tuple(sorted(loops))))


def render_diagram(d: LinkDiagram) -> str:
    """Inverse of :func:`parse_diagram` (record-for-record deterministic)."""
    out = [f"components {d.m}"]
    for cr in d.crossings:
        s = "+" if cr.sign > 0 else "-"
        out.append(f"x {s} {cr.under_in} {cr.under_out} {cr.over_in} {cr.over_out}")
    for arc in sorted(d.arc_components):
        out.append(f"a {arc} {d.arc_components[arc]}")
    for comp in sorted(d.free_loops):
        out.append(f"o {comp}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# structural checks


def consumer_map(d: LinkDiagram) -> dict[int, tuple[int, str]]:
    """arc -> (crossing index 0-based, 'under'|'over') where it is consumed."""
    cons = {}
    for idx, cr in enumerate(d.crossings):
        cons[cr.under_in] = (idx, "under")
        cons[cr.over_in] = (idx, "over")
    return cons


def component_cycles(d: LinkDiagram) -> list[list[int]]:
    """Arc cycles in traversal order, each starting at its lowest arc id.

    Cycles are returned sorted by that starting arc; free loops do not
    appear.  ``d`` passes :func:`check_valid` first.
    """
    return _cycles(check_valid(d))


def _cycles(d: LinkDiagram) -> list[list[int]]:
    """:func:`component_cycles` without the gate: every walk must return
    to its start, so the slots must already be a permutation."""
    nxt = {}
    for cr in d.crossings:
        nxt[cr.under_in] = cr.under_out
        nxt[cr.over_in] = cr.over_out
    seen = set()
    cycles = []
    for start in sorted(d.arc_components):
        if start in seen:
            continue
        cyc = []
        a = start
        while True:
            cyc.append(a)
            seen.add(a)
            a = nxt[a]
            if a == start:
                break
        cycles.append(cyc)
    return cycles


_MAX_VIOLATIONS = 20


def validate(d: LinkDiagram) -> list[str]:
    """Structural violations, as strings; empty list means valid.

    The slots are checked first; once they are sound, the face count
    decides whether the code is a planar diagram.  Lists the first 20,
    then one entry counting the rest.
    """
    return _capped(_violations(d) or _face_count(d))


def _capped(problems: list[str]) -> list[str]:
    if len(problems) > _MAX_VIOLATIONS:
        rest = len(problems) - _MAX_VIOLATIONS
        problems = problems[:_MAX_VIOLATIONS] + [f"... and {rest} more"]
    return problems


def _face_count(d: LinkDiagram) -> list[str]:
    """The Euler count of a code with sound slots: each connected part
    of the crossing graph with v crossings needs v + 2 faces."""
    if not d.crossings:
        return []
    _, nxt, _ = _darts(d)
    found, n = len(_orbits(nxt, range(len(nxt)))), len(d.crossings)
    parts = crossing_graph_parts(d)
    if found == n + 2 * parts:
        return []
    where = "one connected part" if parts == 1 else f"{parts} connected parts"
    return [f"{found} faces for {n} crossings in {where}, "
            f"not {n + 2 * parts}: not a planar diagram"]


def _violations(d: LinkDiagram) -> list[str]:
    problems: list[str] = []
    if type(d.m) is not int or d.m < 1:
        problems.append(f"component count must be a positive integer, got {d.m!r}")
        return problems
    # Each crossing adds two arcs, so no code holds more circles than this;
    # refusing here keeps the per-component checks below bounded.
    most = 2 * len(d.crossings) + len(d.free_loops)
    if d.m > most:
        return [f"component count {d.m} exceeds {most}, the most circles "
                "this code can hold (2 per crossing, 1 per free loop)"]

    # The usual case is checked with plain comparisons; a message is
    # built only where a check fails, in the order of the full checks.
    in_seen: dict[int, int] = {}
    out_seen: dict[int, int] = {}
    for idx, cr in enumerate(d.crossings, start=1):
        sign, ui, uo, oi, oo = (cr.sign, cr.under_in, cr.under_out,
                                cr.over_in, cr.over_out)
        if type(sign) is not int or sign not in (1, -1):
            problems.append(f"crossing {idx}: sign must be +1 or -1, got {sign!r}")
        if not (type(ui) is type(uo) is type(oi) is type(oo) is int
                and ui > 0 and uo > 0 and oi > 0 and oo > 0):
            for arc in (ui, uo, oi, oo):
                if type(arc) is not int or arc < 1:
                    problems.append(f"crossing {idx}: arc ids must be positive, got {arc!r}")
                    return problems
        if (ui in in_seen or oi in in_seen or ui == oi
                or uo in out_seen or oo in out_seen or uo == oo):
            for arc in (ui, oi):
                if arc in in_seen:
                    problems.append(
                        f"arc {arc} consumed by both crossing {in_seen[arc]} and crossing {idx}")
                else:
                    in_seen[arc] = idx
            for arc in (uo, oo):
                if arc in out_seen:
                    problems.append(
                        f"arc {arc} produced by both crossing {out_seen[arc]} and crossing {idx}")
                else:
                    out_seen[arc] = idx
        else:
            in_seen[ui] = in_seen[oi] = out_seen[uo] = out_seen[oo] = idx

    used = in_seen.keys() | out_seen.keys()
    if len(used) != len(in_seen) or len(used) != len(out_seen):
        for arc in in_seen:
            if arc not in out_seen:
                problems.append(f"arc {arc} is consumed but never produced")
        for arc in out_seen:
            if arc not in in_seen:
                problems.append(f"arc {arc} is produced but never consumed")

    arc_comp, m = d.arc_components, d.m
    comps = arc_comp.values()
    if (used != arc_comp.keys() or set(map(type, comps)) != {int}
            or set(map(type, arc_comp)) != {int}
            or min(comps) < 1 or max(comps) > m):
        for arc in arc_comp:
            if type(arc) is not int:
                problems.append(f"arc id {arc!r} in the component map is not an integer")
                return problems
        for arc in sorted(used):
            if arc not in arc_comp:
                problems.append(f"arc {arc} has no 'a' component assignment")
        for arc in sorted(arc_comp):
            if arc not in used:
                problems.append(
                    f"arc {arc} is assigned to component {arc_comp[arc]} "
                    "but appears in no crossing")
            comp = arc_comp[arc]
            if type(comp) is not int or not 1 <= comp <= m:
                problems.append(f"arc {arc}: component {comp!r} out of range 1..{m}")
    for comp in d.free_loops:
        if type(comp) is not int or not 1 <= comp <= m:
            problems.append(f"free loop component {comp!r} out of range 1..{m}")

    if problems:
        return problems

    # The slot structure is sound, so cycles are well defined.  A cycle
    # mixes components exactly when a strand changes component at some
    # crossing; otherwise its first arc names its component.
    mixed = any(arc_comp[cr.under_in] != arc_comp[cr.under_out]
                or arc_comp[cr.over_in] != arc_comp[cr.over_out]
                for cr in d.crossings)
    circles = Counter(d.free_loops)
    for cyc in _cycles(d):
        comps = {arc_comp[a] for a in cyc} if mixed else {arc_comp[cyc[0]]}
        if len(comps) > 1:
            problems.append(
                f"arc cycle starting at arc {cyc[0]} mixes components "
                f"{sorted(comps)}")
        circles[min(comps)] += 1
    if mixed:
        for idx, cr in enumerate(d.crossings, start=1):
            if arc_comp[cr.under_in] != arc_comp[cr.under_out]:
                problems.append(f"crossing {idx}: under strand changes component")
            if arc_comp[cr.over_in] != arc_comp[cr.over_out]:
                problems.append(f"crossing {idx}: over strand changes component")
    for comp in range(1, m + 1):
        n = circles.get(comp, 0)
        if n == 0:
            problems.append(f"component {comp} has no circle (cycle or free loop)")
        elif n > 1:
            problems.append(f"component {comp} is realized by {n} circles")
    return problems


def check_valid(d: LinkDiagram) -> LinkDiagram:
    """``d`` itself when :func:`validate` finds nothing; otherwise
    :class:`DiagramStructureError` with its list, a non-planar code
    included.  Every reader of a diagram starts here; ``d`` remembers
    passing, so a second call is one attribute read."""
    return d if d._valid else _checked(d, validate(d))


def _check_slots(d: LinkDiagram) -> LinkDiagram:
    """:func:`check_valid` without the face count, for the package's own
    builders: each of them keeps a planar code planar, and the count
    costs about half again as much as the slot checks."""
    return _checked(d, _capped(_violations(d)))


def _checked(d: LinkDiagram, problems: list[str]) -> LinkDiagram:
    if problems:
        raise DiagramStructureError(problems)
    object.__setattr__(d, "_valid", True)
    return d


# ---------------------------------------------------------------------------
# patches: a local rewrite as the crossings it takes out and puts in
#
# A patch ``(kill, put, arcs)`` deletes the crossings at the 0-based
# indices ``kill``; ``put`` maps an index below the crossing count to
# the crossing that replaces the one there, and the indices from the
# count up to the crossings appended in that order; ``arcs`` gives the
# component of each arc the patch brings in.  The crossings taken out
# (killed or replaced) form the old tangle, those of ``put`` the new.


def _spliced(d: LinkDiagram, kill, put: dict[int, Crossing],
             arcs: dict[int, int], gone, loops) -> LinkDiagram:
    """``d`` with the patch applied, the arcs ``gone`` dropped and the
    free loops ``loops`` added; every untouched crossing is reused."""
    n = len(d.crossings)
    crossings = list(d.crossings)
    for idx, cr in put.items():
        if idx < n:
            crossings[idx] = cr
    if kill:
        cuts = sorted(kill)
        crossings = list(chain.from_iterable(
            crossings[a + 1:b] for a, b in zip([-1, *cuts], [*cuts, n])))
    crossings += [put[idx] for idx in sorted(put) if idx >= n]
    arc_comp = dict(d.arc_components)
    for a in gone:
        del arc_comp[a]
    arc_comp.update(arcs)
    return LinkDiagram(d.m, tuple(crossings), arc_comp,
                       tuple(sorted((*d.free_loops, *loops))))


def _slots(crossings) -> list[int]:
    """The slot arcs of ``crossings``, four each: under_in, under_out,
    over_in, over_out, so each in-slot is followed by its out-slot."""
    return [a for cr in crossings
            for a in (cr.under_in, cr.under_out, cr.over_in, cr.over_out)]


def _strands(slots: list[int]):
    """``(ends, inner, closed)`` of the crossings with the :func:`_slots`
    ``slots``: each strand's in-end mapped to its out-end, the arcs both
    produced and consumed among them, and each strand that closes among
    them, as its arcs; None where two in-slots or two out-slots name one
    arc."""
    nxt = dict(zip(slots[0::2], slots[1::2]))
    outs = set(slots[1::2])
    if 2 * len(nxt) != len(slots) or len(outs) != len(nxt):
        return None
    inner = nxt.keys() & outs
    ends, left = {}, set(inner)
    for a in nxt.keys() - inner:
        b = nxt[a]
        while b in left:
            left.remove(b)
            b = nxt[b]
        ends[a] = b
    closed = []
    while left:
        cycle = [left.pop()]
        while nxt[cycle[-1]] in left:
            left.remove(nxt[cycle[-1]])
            cycle.append(nxt[cycle[-1]])
        closed.append(cycle)
    return ends, inner, closed


def _patched(d: LinkDiagram, kill, put: dict[int, Crossing],
             arcs: dict[int, int]) -> LinkDiagram:
    """``d``, which passed the gate, rewritten by a patch and certified
    by its two tangles alone.  The arcs inside the old tangle that the
    new one does not name leave the arc map, and each strand that
    closes inside the old tangle becomes a free loop of its component,
    unless a strand of that component closes inside the new one in its
    place.  Where :func:`_fits` does not certify the result,
    :func:`_check_slots` decides, with its own messages."""
    n = len(d.crossings)
    old = _strands(_slots(
        [d.crossings[i] for i in (*kill, *(i for i in put if i < n))]))
    slots = _slots(put.values())
    new = _strands(slots)
    comp = d.arc_components
    loops = [comp[c[0]] for c in old[2]]
    fits = new is not None
    for c in new[2] if fits else ():
        c = arcs.get(c[0], comp.get(c[0]))
        if c in loops:
            loops.remove(c)
        else:
            fits = False
    gone = old[1].difference(slots) if old[1] else ()
    result = _spliced(d, kill, put, arcs, gone, loops)
    if fits and _fits(d, old, new, put, arcs, slots):
        return _checked(result, [])
    return _check_slots(result)


def _fits(d: LinkDiagram, old, new, put: dict[int, Crossing],
          arcs: dict[int, int], slots: list[int]) -> bool:
    """Whether the new tangle of a patch keeps the valid ``d`` valid,
    given the :func:`_strands` of both tangles, the new one's found and
    closing no more strands of any component than the old one, and the
    new one's ``slots``.  The new crossings must be sound and join the
    old tangle's ends in the same pairs; each arc inside the new tangle
    must be fresh, with its component in ``arcs``, or have been inside
    the old one; and no new crossing may change a strand's component.
    Then the result's slots are a permutation with the circles of
    ``d``, so :func:`_violations` finds nothing there."""
    if not (all(type(cr.sign) is int and cr.sign in (1, -1)
                for cr in put.values())
            and all(type(a) is int and a > 0 for a in slots)):
        return False
    (ends, inner, _), (old_ends, old_inner, _) = new, old
    comp = d.arc_components
    if (ends != old_ends or arcs.keys() - inner
            or not all(type(c) is int for c in chain(arcs, arcs.values()))):
        return False
    for a in inner:
        if a not in old_inner and (a in comp or a not in arcs):
            return False
    at = [arcs[a] if a in arcs else comp[a] for a in slots]
    return at[0::2] == at[1::2]


# ---------------------------------------------------------------------------
# crossing-deletion surgery (shared by sublink, smoothing, the R1-/R2-
# rewrites and the Conway reduction), the curl and bigon matchers, and
# the bigon finder that R2- sites and the reduction share


def delete_crossings(d: LinkDiagram, kill: set[int]) -> LinkDiagram:
    """Remove the crossings with 0-based indices in ``kill``, each strand
    running straight through them: one that enters from a kept crossing
    keeps the arc it enters on, which now feeds the kept crossing that
    consumed the arc it leaves on, and one that closes among them
    becomes a free loop of its component.  Every other arc of a killed
    crossing disappears, and every untouched crossing is reused.
    Component numbering is preserved; callers renumber if components
    merge or split."""
    put, (ends, inner, closed) = _bypassed(d, kill)
    comp = d.arc_components
    return _spliced(d, kill, put, {}, inner.union(ends.values()),
                    [comp[c[0]] for c in closed])


def _bypassed(d: LinkDiagram, kill):
    """``(put, strands)``: the :func:`_strands` of the crossings at the
    0-based indices ``kill``, and the kept crossings that consume a
    strand's out-end there, by index, each consuming that strand's
    in-end instead."""
    strands = _strands(_slots(d.crossings[i] for i in kill))
    return _rethreaded(d, {b: a for a, b in strands[0].items()}), strands


def _rethreaded(d: LinkDiagram, left: dict[int, int]) -> dict[int, Crossing]:
    """The crossings that consume an arc of ``left``, by index, each
    consuming ``left[arc]`` there instead; one scan, which empties
    ``left`` and stops once every arc is found."""
    put = {}
    for idx, cr in enumerate(d.crossings):
        if not left:
            break
        if cr.under_in in left or cr.over_in in left:
            put[idx] = Crossing(
                cr.sign, left.pop(cr.under_in, cr.under_in), cr.under_out,
                left.pop(cr.over_in, cr.over_in), cr.over_out)
    return put


def is_curl(cr: Crossing) -> bool:
    """Whether ``cr`` is a curl: one output feeds straight back into its
    other input."""
    return cr.under_out == cr.over_in or cr.over_out == cr.under_in


def is_bigon(a: Crossing, b: Crossing) -> bool:
    """Whether ``a`` and ``b``, where a's over strand runs straight into
    b's (``a.over_out == b.over_in``), are a bigon: the signs are
    opposite and the under strands share an arc, in either direction.
    """
    return a.sign == -b.sign and (a.under_out == b.under_in
                                  or b.under_out == a.under_in)


def bigons(d: LinkDiagram) -> list[tuple[int, int]]:
    """The 0-based pairs ``(a, b)`` where a's over strand runs straight
    into b's and :func:`is_bigon` holds, listed in order of a.

    Each bounds a 2-gon face of any planar code.  With the under strand
    heading east, the over strand heads north at a + crossing and south
    at a - one.  The loop arrives at a by the under strand and leaves by
    the over one, turning left if a is +; at b it arrives by the over
    strand and leaves by the under one, turning left if b is -.  So
    opposite signs put both corners on one side of the loop, and
    nothing else of that part lies on that side."""
    crossings = d.crossings
    over = {cr.over_in: j for j, cr in enumerate(crossings)}
    return [(i, j) for i, a in enumerate(crossings)
            if (j := over.get(a.over_out)) is not None
            and is_bigon(a, crossings[j])]


def _renumber_components(d: LinkDiagram) -> LinkDiagram:
    """Re-derive component ids from the circle structure.

    Each circle is keyed by (smallest old component id on it, smallest
    arc id); circles sorted by key receive ids 1, 2, ...  This keeps
    untouched components in their relative order and resolves merges
    and splits deterministically.  It also numbers braid closures: there
    every arc carries the strand position its row started at, so circles
    come in order of their lowest position, free loops in place.
    """
    keyed = [(min((d.arc_components[a], a) for a in cyc), cyc)
             for cyc in _cycles(d)]
    keyed += [((comp, 0), None) for comp in d.free_loops]
    keyed.sort(key=lambda t: t[0])

    arc_comp: dict[int, int] = {}
    loops: list[int] = []
    for new_id, (_, cyc) in enumerate(keyed, start=1):
        if cyc is None:
            loops.append(new_id)
        else:
            for a in cyc:
                arc_comp[a] = new_id
    return LinkDiagram(len(keyed), d.crossings, arc_comp,
                       tuple(sorted(loops)))


# ---------------------------------------------------------------------------
# whole-diagram operations


def sublink(d: LinkDiagram, keep) -> LinkDiagram:
    """Diagram of the sublink spanned by the component set ``keep``.

    Kept components are renumbered 1..|keep| in increasing order of
    their old ids.  Every crossing with a dropped strand is deleted:
    the dropped components close into free loops, which are dropped
    too.
    """
    check_valid(d)
    keep = set(keep)
    if not keep:
        raise ValueError("sublink needs at least one component")
    bad = sorted(c for c in keep if not 1 <= c <= d.m)
    if bad:
        raise ValueError(f"components out of range 1..{d.m}: {bad}")

    comp = d.arc_components
    trimmed = delete_crossings(d, {
        idx for idx, cr in enumerate(d.crossings)
        if comp[cr.under_in] not in keep or comp[cr.over_in] not in keep})
    # one circle per kept component, so renumbering keeps their order
    return _renumber_components(replace(trimmed, free_loops=tuple(
        c for c in trimmed.free_loops if c in keep)))


# ---------------------------------------------------------------------------
# face structure of a realizable code
#
# A dart walks an arc, along its orientation or against it, into a
# crossing: dart 4 * idx + k enters crossing idx (0-based) at slot k of
# :func:`_slots`, forward at an in-slot (k even), backward at an
# out-slot.  Orient the under strand east; the over strand heads north
# at a positive crossing, south at a negative one.  A face boundary
# entering at a slot turns to the slot before it counterclockwise, the
# face on its left, and leaves along that slot's arc: forward, into its
# consumer, from an out-slot, and backward, into its producer, from an
# in-slot.  Slot k turns to slot (3, 2, 0, 1)[k] at a positive crossing
# and to (2, 3, 1, 0)[k] at a negative one, which ``_turns`` writes out
# once; the dart table and the one-face walk both read it.


def _ends(arc) -> tuple[dict[int, int], dict[int, int]]:
    """``(back, fwd)`` for the slot arcs ``arc``: the dart that enters
    each arc's producer, and the one that enters its consumer.  A
    boundary leaving along slot j takes ``(back, fwd)[j & 1]`` of its
    arc."""
    return (dict(zip(arc[1::2], range(1, len(arc), 2))),
            dict(zip(arc[0::2], range(0, len(arc), 2))))


def _turns(crossings, back: dict[int, int], fwd: dict[int, int]) -> list[int]:
    """For each dart into ``crossings``, four per crossing in slot
    order, the dart leaving the corner it enters, read from the maps
    ``back`` and ``fwd`` of :func:`_ends`."""
    nxt = []
    for cr in crossings:
        if cr.sign > 0:
            nxt += (fwd[cr.over_out], back[cr.over_in],
                    back[cr.under_in], fwd[cr.under_out])
        else:
            nxt += (back[cr.over_in], fwd[cr.over_out],
                    fwd[cr.under_out], back[cr.under_in])
    return nxt


def _darts(d: LinkDiagram) -> tuple[list[int], list[int], list[int]]:
    """The dart table ``(arc, nxt, order)``: each dart's arc, the dart
    leaving the corner it enters, and all darts in ``(arc, forward)``
    order.  Its size is set by the crossings, not by the arc ids."""
    arc = _slots(d.crossings)
    back, fwd = _ends(arc)
    return (arc, _turns(d.crossings, back, fwd),
            [p for a in sorted(fwd) for p in (back[a], fwd[a])])


def _face_walk(crossings, ends, p: int, most: int) -> list[int] | None:
    """The darts of the face left of dart ``p``, from it, when the walk
    returns to ``p`` within ``most`` darts; None once it reaches a dart
    that ``ends`` (see :func:`_ends`) gives as -1, or runs longer.
    ``crossings`` lists the crossings that the darts number."""
    face = [p]
    while len(face) <= most:
        p = _turns((crossings[p >> 2],), *ends)[p & 3]
        if p == face[0]:
            return face
        if p < 0:
            return None
        face.append(p)
    return None


def _orbits(nxt: list[int], order: list[int]) -> list[list[int]]:
    """The darts of each face, listed by and starting at its first dart
    in ``order``."""
    seen, out = bytearray(len(nxt)), []
    for start in order:
        face, p = [], start
        while not seen[p]:
            seen[p] = 1
            face.append(p)
            p = nxt[p]
        if face:
            out.append(face)
    return out


def faces(d: LinkDiagram) -> list[list[tuple[int, bool]]]:
    """Face boundaries of the planar embedding determined by the signs.

    Each face is a cyclic list of darts ``(arc, forward)``, walking the
    arc along its orientation if ``forward``, with the face on its
    left.  Faces are listed by, and start at, their lowest dart; free
    loops carry none.  For a planar code
    ``faces - arcs + crossings == 1 + connected parts``.
    """
    arc, nxt, order = _darts(check_valid(d))
    return [[(arc[p], not p & 1) for p in face] for face in _orbits(nxt, order)]


def _triangles(d: LinkDiagram) -> list[tuple[int, int, int]]:
    """The faces with three sides at three distinct crossings, each as
    its sorted crossing ids; sorted."""
    _, nxt, order = _darts(d)
    corners = ({(p >> 2) + 1 for p in face}
               for face in _orbits(nxt, order) if len(face) == 3)
    return sorted({tuple(sorted(c)) for c in corners if len(c) == 3})


def face_through(d: LinkDiagram, dart: tuple[int, bool]) -> list[tuple[int, bool]]:
    """The darts of the face left of ``dart``, from it; empty when no
    crossing meets the dart's arc.  One walk through the map from each
    arc to the darts at its ends; ``d`` has sound slots."""
    arc = _slots(d.crossings)
    ends = _ends(arc)
    a, forward = dart
    p = ends[forward].get(a)
    face = p is not None and _face_walk(d.crossings, ends, p, len(arc))
    return [(arc[q], not q & 1) for q in face] if face else []


def _is_face(d: LinkDiagram, cids) -> bool:
    """Whether one face has a corner at each crossing of the 1-based
    ``cids`` and at no other, once each: a walk from each dart into the
    first of them, through their own slots alone, which number their
    darts from 0."""
    at = [d.crossings[cid - 1] for cid in cids]
    slots = _slots(at)
    # the slots leaving the site end the walk
    ends = [{**dict.fromkeys(slots, -1), **e} for e in _ends(slots)]
    return any(
        face is not None and len(face) == len(at) == len({p >> 2 for p in face})
        for face in (_face_walk(at, ends, p, len(at)) for p in range(4)))


def crossing_graph_parts(d: LinkDiagram) -> int:
    """Connected parts among the crossing-bearing components.

    Free loops are excluded (they carry no darts, so :func:`faces`
    never sees them either); two components are in the same part when
    some crossing involves both.
    """
    comps = sorted(set(d.arc_components.values()))
    parent = {c: c for c in comps}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cr in d.crossings:
        a = find(d.arc_components[cr.under_in])
        b = find(d.arc_components[cr.over_in])
        if a != b:
            parent[a] = b
    return len({find(c) for c in comps})

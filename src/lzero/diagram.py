"""Oriented link-diagram codes: parsing, validation, structural surgery.

A diagram is stored as a list of signed crossings wired together by
*arcs*.  An arc here is one oriented edge of the underlying 4-valent
graph: it is produced by exactly one output slot (``under_out`` or
``over_out``) of some crossing and consumed by exactly one input slot
(``under_in`` or ``over_in``).  Following "output slot -> paired input
slot" around the diagram partitions the arcs into disjoint cycles, one
per component.  Components with no crossings at all cannot be expressed
that way, so they are kept separately as *free loops*.

Planarity of a code is not certified on parsing; all operations are
combinatorial and their outputs are meaningful for codes that arise
from actual planar diagrams.  The face structure of a realizable code
follows from the crossing signs through one integer dart table, four
darts per crossing numbered by the slot they enter, with the dart that
leaves each corner: ``faces``, ``face_walks`` and ``face_through`` are
views of it, move generation reads it to stay inside the realizable
world, and the Conway engine builds its matrices from it.

File format (UTF-8, one record per line, ``#`` starts a comment):

    components <m>
    x <+|-> <under_in> <under_out> <over_in> <over_out>
    a <arc> <component>
    o <component>

``x`` records are implicitly numbered 1, 2, ... in file order; that
index is the crossing id used by moves and by the skein primitives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .errors import DiagramParseError, DiagramStructureError

__all__ = [
    "Crossing",
    "LinkDiagram",
    "parse_diagram",
    "render_diagram",
    "validate",
    "check_valid",
    "successor_map",
    "component_cycles",
    "sublink",
    "disjoint_union",
    "mirror",
    "faces",
    "face_walks",
]


@dataclass(frozen=True)
class Crossing:
    """One signed crossing; the four fields are arc ids."""

    sign: int
    under_in: int
    under_out: int
    over_in: int
    over_out: int

    def outputs(self):
        return (self.under_out, self.over_out)

    def arcs(self):
        return (self.under_in, self.under_out, self.over_in, self.over_out)

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
    """

    m: int
    crossings: tuple[Crossing, ...]
    arc_components: dict[int, int]
    free_loops: tuple[int, ...] = ()
    name: str = field(default="", compare=False)

    def arcs(self):
        return set(self.arc_components)

    def crossing(self, cid: int) -> Crossing:
        """Crossing by 1-based id (= position in the record list)."""
        if not 1 <= cid <= len(self.crossings):
            raise IndexError(f"no crossing {cid}; diagram has {len(self.crossings)}")
        return self.crossings[cid - 1]

    def max_arc(self) -> int:
        return max(self.arc_components, default=0)

    def self_writhe(self, comp: int) -> int:
        """Signed count of crossings whose both strands lie on ``comp``."""
        w = 0
        for cr in self.crossings:
            if (self.arc_components[cr.under_in] == comp
                    and self.arc_components[cr.over_in] == comp):
                w += cr.sign
        return w


# ---------------------------------------------------------------------------
# parsing / rendering


def parse_diagram(text: str, name: str = "") -> LinkDiagram:
    """Parse the line format above; raises on any syntax or structure problem."""
    m = None
    crossings = []
    arc_comp: dict[int, int] = {}
    loops: list[int] = []

    def fail(lineno, raw, tok, msg):
        col = raw.find(tok) + 1 if tok and tok in raw else 1
        raise DiagramParseError(msg, line=lineno, column=col)

    def want_int(lineno, raw, tok, positive=True):
        try:
            v = int(tok)
        except ValueError:
            fail(lineno, raw, tok, f"expected an integer, got {tok!r}")
        if positive and v < 1:
            fail(lineno, raw, tok, f"expected a positive integer, got {tok!r}")
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "components":
            if m is not None:
                fail(lineno, raw, kw, "duplicate 'components' record")
            if len(parts) != 2:
                fail(lineno, raw, kw, "'components' takes exactly one integer")
            m = want_int(lineno, raw, parts[1])
        elif kw == "x":
            if len(parts) != 6:
                fail(lineno, raw, kw, "'x' takes sign and four arc ids")
            if parts[1] not in ("+", "-"):
                fail(lineno, raw, parts[1], f"sign must be '+' or '-', got {parts[1]!r}")
            sign = 1 if parts[1] == "+" else -1
            ids = [want_int(lineno, raw, t) for t in parts[2:6]]
            crossings.append(Crossing(sign, *ids))
        elif kw == "a":
            if len(parts) != 3:
                fail(lineno, raw, kw, "'a' takes arc id and component id")
            arc = want_int(lineno, raw, parts[1])
            comp = want_int(lineno, raw, parts[2])
            if arc in arc_comp:
                fail(lineno, raw, parts[1], f"arc {arc} assigned to a component twice")
            arc_comp[arc] = comp
        elif kw == "o":
            if len(parts) != 2:
                fail(lineno, raw, kw, "'o' takes one component id")
            loops.append(want_int(lineno, raw, parts[1]))
        else:
            fail(lineno, raw, kw, f"unknown record type {kw!r}")

    if m is None:
        raise DiagramParseError("missing 'components' record", line=1, column=1)

    d = LinkDiagram(m, tuple(crossings), arc_comp, tuple(sorted(loops)), name=name)
    problems = validate(d)
    if problems:
        raise DiagramStructureError(problems)
    return d


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


def successor_map(d: LinkDiagram) -> dict[int, int]:
    """arc -> the arc the strand continues into at its consuming crossing."""
    nxt = {}
    for cr in d.crossings:
        nxt[cr.under_in] = cr.under_out
        nxt[cr.over_in] = cr.over_out
    return nxt


def consumer_map(d: LinkDiagram) -> dict[int, tuple[int, str]]:
    """arc -> (crossing index 0-based, 'under'|'over') where it is consumed."""
    cons = {}
    for idx, cr in enumerate(d.crossings):
        cons[cr.under_in] = (idx, "under")
        cons[cr.over_in] = (idx, "over")
    return cons


def component_cycles(d: LinkDiagram) -> list[list[int]]:
    """Arc cycles in traversal order, each starting at its lowest arc id.

    Cycles are returned sorted by that starting arc.  Assumes the slot
    structure already validated; free loops do not appear.
    """
    nxt = successor_map(d)
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

    Lists the first 20, then one entry counting the rest.
    """
    problems = _violations(d)
    if len(problems) > _MAX_VIOLATIONS:
        rest = len(problems) - _MAX_VIOLATIONS
        problems = problems[:_MAX_VIOLATIONS] + [f"... and {rest} more"]
    return problems


def _violations(d: LinkDiagram) -> list[str]:
    problems: list[str] = []
    if not isinstance(d.m, int) or d.m < 1:
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
        if sign not in (1, -1):
            problems.append(f"crossing {idx}: sign must be +1 or -1, got {sign!r}")
        if not (type(ui) is type(uo) is type(oi) is type(oo) is int
                and ui > 0 and uo > 0 and oi > 0 and oo > 0):
            for arc in (ui, uo, oi, oo):
                if not isinstance(arc, int) or arc < 1:
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
            or min(comps) < 1 or max(comps) > m):
        for arc in sorted(used):
            if arc not in arc_comp:
                problems.append(f"arc {arc} has no 'a' component assignment")
        for arc in sorted(arc_comp):
            if arc not in used:
                problems.append(
                    f"arc {arc} is assigned to component {arc_comp[arc]} "
                    "but appears in no crossing")
            comp = arc_comp[arc]
            if not isinstance(comp, int) or not 1 <= comp <= m:
                problems.append(f"arc {arc}: component {comp!r} out of range 1..{m}")
    for comp in d.free_loops:
        if not isinstance(comp, int) or not 1 <= comp <= m:
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
    for cyc in component_cycles(d):
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
    problems = validate(d)
    if problems:
        raise DiagramStructureError(problems)
    return d


# ---------------------------------------------------------------------------
# crossing-deletion surgery (shared by sublink, smoothing, the R1-/R2-
# rewrites and the Conway reduction), and the curl and bigon matchers
# that feed it


def delete_crossings(d: LinkDiagram, kill: set[int],
                     fusions: list[tuple[int, int]]) -> LinkDiagram:
    """Remove the crossings with 0-based indices in ``kill``.

    ``fusions`` is a list of (in_arc, out_arc) pairs, one per surviving
    strand passage through a killed crossing: the strand that entered on
    ``in_arc`` continues into whatever consumed ``out_arc``.  Chains of
    fusions are resolved so that the arc entering the killed region from
    a surviving crossing keeps its identity and absorbs the rest.  A
    fusion chain that closes on itself leaves a crossing-free circle,
    which is recorded as a free loop.  Arcs touching killed crossings on
    both ends and not mentioned in any fusion simply disappear.

    Component numbering is preserved; callers renumber if components
    merge or split.
    """
    nxt = dict(fusions)
    if len(nxt) != len(fusions):
        raise ValueError("duplicate fusion sources")

    produced_by_kept = set()
    for idx, cr in enumerate(d.crossings):
        if idx not in kill:
            produced_by_kept.update(cr.outputs())

    relabel: dict[int, int] = {}
    consumed = set()
    for head in sorted(nxt):
        if head not in produced_by_kept:
            continue
        tail = nxt[head]
        consumed.add(head)
        while tail in nxt:
            consumed.add(tail)
            tail = nxt[tail]
        if tail != head:
            relabel[tail] = head
            consumed.add(tail)

    loops = list(d.free_loops)
    remaining = sorted(set(nxt) - consumed)
    while remaining:
        start = remaining[0]
        arc = start
        cycle = []
        while True:
            cycle.append(arc)
            arc = nxt[arc]
            if arc == start:
                break
        loops.append(d.arc_components[start])
        consumed.update(cycle)
        remaining = sorted(set(nxt) - consumed)

    new_crossings = []
    for idx, cr in enumerate(d.crossings):
        if idx in kill:
            continue
        new_crossings.append(Crossing(
            cr.sign,
            relabel.get(cr.under_in, cr.under_in), cr.under_out,
            relabel.get(cr.over_in, cr.over_in), cr.over_out))

    live = set()
    for cr in new_crossings:
        live.update(cr.arcs())
    arc_comp = {a: d.arc_components[a] for a in live}
    return LinkDiagram(d.m, tuple(new_crossings), arc_comp,
                       tuple(sorted(loops)), name=d.name)


def kink_fusion(cr: Crossing):
    """The fusion that deletes the curl ``cr``, or None if it is none.

    A curl feeds one output straight back into its other input; the
    strand entering on the remaining input leaves on the remaining
    output.
    """
    if cr.under_out == cr.over_in:
        return (cr.under_in, cr.over_out)
    if cr.over_out == cr.under_in:
        return (cr.over_in, cr.under_out)
    return None


def bigon_fusions(a: Crossing, b: Crossing):
    """The two fusions that delete ``a`` and ``b`` as a bigon, or None.

    Applies when a's over strand runs straight into b's
    (``a.over_out == b.over_in``).  The pair is a bigon when the signs
    are opposite and the under strands share an arc, in either
    direction.
    """
    if a.sign != -b.sign:
        return None
    if a.under_out == b.under_in:
        under = (a.under_in, b.under_out)
    elif b.under_out == a.under_in:
        under = (b.under_in, a.under_out)
    else:
        return None
    return [(a.over_in, b.over_out), under]


def renumber_components(d: LinkDiagram) -> LinkDiagram:
    """Re-derive component ids from the circle structure.

    Each circle is keyed by (smallest old component id on it, smallest
    arc id); circles sorted by key receive ids 1, 2, ...  This keeps
    untouched components in their relative order and resolves merges
    and splits deterministically.  It also numbers braid closures: there
    every arc carries the strand position its row started at, so circles
    come in order of their lowest position, free loops in place.
    """
    keyed: list[tuple[tuple[int, int], list[int] | None, int | None]] = []
    for cyc in component_cycles(d):
        key = min((d.arc_components[a], a) for a in cyc)
        keyed.append((key, cyc, None))
    for comp in d.free_loops:
        keyed.append(((comp, 0), None, comp))
    keyed.sort(key=lambda t: t[0])

    arc_comp: dict[int, int] = {}
    loops: list[int] = []
    for new_id, (_, cyc, loop_comp) in enumerate(keyed, start=1):
        if cyc is None:
            loops.append(new_id)
        else:
            for a in cyc:
                arc_comp[a] = new_id
    return LinkDiagram(len(keyed), d.crossings, arc_comp,
                       tuple(sorted(loops)), name=d.name)


# ---------------------------------------------------------------------------
# whole-diagram operations


def sublink(d: LinkDiagram, keep) -> LinkDiagram:
    """Diagram of the sublink spanned by the component set ``keep``.

    Kept components are renumbered 1..|keep| in increasing order of
    their old ids.  At each deleted crossing the surviving strand's
    in-arc absorbs the out-arc's identity.
    """
    keep = set(keep)
    if not keep:
        raise ValueError("sublink needs at least one component")
    bad = sorted(c for c in keep if not 1 <= c <= d.m)
    if bad:
        raise ValueError(f"components out of range 1..{d.m}: {bad}")

    kill: set[int] = set()
    fusions: list[tuple[int, int]] = []
    for idx, cr in enumerate(d.crossings):
        under_kept = d.arc_components[cr.under_in] in keep
        over_kept = d.arc_components[cr.over_in] in keep
        if under_kept and over_kept:
            continue
        kill.add(idx)
        if under_kept:
            fusions.append((cr.under_in, cr.under_out))
        elif over_kept:
            fusions.append((cr.over_in, cr.over_out))

    trimmed = delete_crossings(d, kill, fusions)
    order = {old: new for new, old in enumerate(sorted(keep), start=1)}
    arc_comp = {a: order[c] for a, c in trimmed.arc_components.items()
                if c in keep}
    loops = tuple(sorted(order[c] for c in trimmed.free_loops if c in keep))
    return LinkDiagram(len(keep), trimmed.crossings, arc_comp, loops,
                       name=d.name)


def disjoint_union(d1: LinkDiagram, d2: LinkDiagram) -> LinkDiagram:
    """Split union; d2's components are renumbered after d1's, its arcs shifted."""
    shift = d1.max_arc()
    crossings = list(d1.crossings)
    for cr in d2.crossings:
        crossings.append(Crossing(cr.sign, cr.under_in + shift,
                                  cr.under_out + shift, cr.over_in + shift,
                                  cr.over_out + shift))
    arc_comp = dict(d1.arc_components)
    for a, c in d2.arc_components.items():
        arc_comp[a + shift] = c + d1.m
    loops = tuple(sorted(d1.free_loops + tuple(c + d1.m for c in d2.free_loops)))
    return LinkDiagram(d1.m + d2.m, tuple(crossings), arc_comp, loops,
                       name=d1.name)


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Mirror image: every sign flipped, under/over roles exchanged."""
    return replace(d, crossings=tuple(cr.switched() for cr in d.crossings))


# ---------------------------------------------------------------------------
# face structure of a realizable code
#
# A dart walks an arc, along its orientation or against it, into a
# crossing: dart 4 * idx + k enters crossing idx (0-based) at slot k of
# ``Crossing.arcs()``, forward at an in-slot (k even), backward at an
# out-slot.  Orient the under strand east; the over strand heads north
# at a positive crossing, south at a negative one.  A face boundary
# entering at a slot turns to the slot before it counterclockwise, the
# face on its left, and leaves there.

_SLOTS = ("under_in", "under_out", "over_in", "over_out")
# sign -> the slot each slot k turns to
_TURN = {1: (3, 2, 0, 1), -1: (2, 3, 1, 0)}


def _darts(d: LinkDiagram) -> tuple[list[int], list[int], list[int]]:
    """The dart table ``(arc, nxt, order)``: each dart's arc, the dart
    leaving the corner it enters, and all darts in ``(arc, forward)``
    order.  Its size is set by the crossings, not by the arc ids."""
    arc = [a for cr in d.crossings
           for a in (cr.under_in, cr.under_out, cr.over_in, cr.over_out)]
    # the forward and the backward dart of each arc
    fwd = dict(zip(arc[0::2], range(0, len(arc), 2)))
    back = dict(zip(arc[1::2], range(1, len(arc), 2)))
    nxt = []
    for cr in d.crossings:
        if cr.sign > 0:
            nxt += (fwd[cr.over_out], back[cr.over_in],
                    back[cr.under_in], fwd[cr.under_out])
        else:
            nxt += (back[cr.over_in], fwd[cr.over_out],
                    fwd[cr.under_out], back[cr.under_in])
    return arc, nxt, [p for a in sorted(fwd) for p in (back[a], fwd[a])]


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
    arc, nxt, order = _darts(d)
    return [[(arc[p], not p & 1) for p in face] for face in _orbits(nxt, order)]


def face_walks(d: LinkDiagram) -> list[list[tuple]]:
    """:func:`faces` with corners: ``(dart, idx, slot, nslot)``, where
    the dart enters crossing ``idx`` (0-based) at ``slot`` and the
    face's corner there runs to ``nslot``, where the next dart leaves."""
    arc, nxt, order = _darts(d)
    return [[((arc[p], not p & 1), p >> 2, _SLOTS[p & 3],
              _SLOTS[_TURN[d.crossings[p >> 2].sign][p & 3]]) for p in face]
            for face in _orbits(nxt, order)]


def face_through(d: LinkDiagram, dart: tuple[int, bool]) -> list[tuple[int, bool]]:
    """The darts of the face left of ``dart``, from it; empty when no
    crossing meets the dart's arc."""
    arc, nxt, _ = _darts(d)
    a, forward = dart
    try:
        p = arc.index(a)
        if (p % 2 == 0) != forward:
            p = arc.index(a, p + 1)
    except ValueError:
        return []
    return [(arc[q], not q & 1) for q in _orbits(nxt, [p])[0]]


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

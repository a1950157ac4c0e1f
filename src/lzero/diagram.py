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
from actual planar diagrams.  ``face_walks`` reconstructs the face
structure of a realizable code from the crossing signs, with the
crossing corner at each step; move generation reads it to stay inside
the realizable world, and the Conway engine builds its determinant
from it.

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

    def inputs(self):
        return (self.under_in, self.over_in)

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


def validate(d: LinkDiagram) -> list[str]:
    """All structural violations, as strings; empty list means valid."""
    problems: list[str] = []
    if not isinstance(d.m, int) or d.m < 1:
        problems.append(f"component count must be a positive integer, got {d.m!r}")
        return problems

    in_seen: dict[int, int] = {}
    out_seen: dict[int, int] = {}
    for idx, cr in enumerate(d.crossings, start=1):
        if cr.sign not in (1, -1):
            problems.append(f"crossing {idx}: sign must be +1 or -1, got {cr.sign!r}")
        for arc in cr.arcs():
            if not isinstance(arc, int) or arc < 1:
                problems.append(f"crossing {idx}: arc ids must be positive, got {arc!r}")
                return problems
        for arc in cr.inputs():
            if arc in in_seen:
                problems.append(
                    f"arc {arc} consumed by both crossing {in_seen[arc]} and crossing {idx}")
            else:
                in_seen[arc] = idx
        for arc in cr.outputs():
            if arc in out_seen:
                problems.append(
                    f"arc {arc} produced by both crossing {out_seen[arc]} and crossing {idx}")
            else:
                out_seen[arc] = idx

    for arc in in_seen:
        if arc not in out_seen:
            problems.append(f"arc {arc} is consumed but never produced")
    for arc in out_seen:
        if arc not in in_seen:
            problems.append(f"arc {arc} is produced but never consumed")

    used = set(in_seen) | set(out_seen)
    for arc in sorted(used):
        if arc not in d.arc_components:
            problems.append(f"arc {arc} has no 'a' component assignment")
    for arc in sorted(d.arc_components):
        if arc not in used:
            problems.append(
                f"arc {arc} is assigned to component {d.arc_components[arc]} "
                "but appears in no crossing")
        comp = d.arc_components[arc]
        if not isinstance(comp, int) or not 1 <= comp <= d.m:
            problems.append(f"arc {arc}: component {comp!r} out of range 1..{d.m}")
    for comp in d.free_loops:
        if not isinstance(comp, int) or not 1 <= comp <= d.m:
            problems.append(f"free loop component {comp!r} out of range 1..{d.m}")

    if problems:
        return problems

    # The slot structure is sound, so cycles are well defined.
    circles = Counter(d.free_loops)
    for cyc in component_cycles(d):
        comps = {d.arc_components[a] for a in cyc}
        if len(comps) > 1:
            problems.append(
                f"arc cycle starting at arc {cyc[0]} mixes components "
                f"{sorted(comps)}")
        circles[min(comps)] += 1
    for idx, cr in enumerate(d.crossings, start=1):
        if d.arc_components[cr.under_in] != d.arc_components[cr.under_out]:
            problems.append(f"crossing {idx}: under strand changes component")
        if d.arc_components[cr.over_in] != d.arc_components[cr.over_out]:
            problems.append(f"crossing {idx}: over strand changes component")
    for comp in range(1, d.m + 1):
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
# crossing-deletion surgery (shared by sublink, smoothing, and the
# R1-/R2- rewrites)


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


def renumber_components(d: LinkDiagram) -> LinkDiagram:
    """Re-derive component ids from the circle structure.

    Each circle is keyed by (smallest old component id on it, smallest
    arc id); circles sorted by key receive ids 1, 2, ...  This keeps
    untouched components in their relative order and resolves merges
    and splits deterministically.
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

# Counterclockwise slot order around a crossing, recovered from the
# sign: orient the under strand east; a positive crossing has the over
# strand heading north, a negative one south.
_CCW = {
    1: ("under_in", "over_in", "under_out", "over_out"),
    -1: ("under_in", "over_out", "under_out", "over_in"),
}


def face_walks(d: LinkDiagram) -> list[list[tuple]]:
    """Face boundaries of the planar embedding determined by the signs.

    Each face is a cyclic list ``(dart, idx, slot, nslot)``: the dart
    ``(arc, forward)`` walks its arc (along the orientation if
    ``forward``) into crossing ``idx`` (0-based) at ``slot``, and the
    face's corner there runs to ``nslot``, where the next dart leaves.
    The face lies to the left of every dart.  Faces are listed by, and
    start at, their lowest dart; free loops carry none.  For a planar
    code ``faces - arcs + crossings == 1 + connected parts``.
    """
    ends = {}
    for idx, cr in enumerate(d.crossings):
        order = _CCW[cr.sign]
        for k, slot in enumerate(order):
            # the slot an arc enters at, and the slot the boundary turns to
            ends[getattr(cr, slot), slot.endswith("_in")] = (
                idx, slot, order[k - 1])

    result = []
    seen = set()
    for start in sorted(ends):
        if start in seen:
            continue
        walk = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            idx, slot, nslot = ends[dart]
            walk.append((dart, idx, slot, nslot))
            dart = (getattr(d.crossings[idx], nslot), nslot.endswith("_out"))
        result.append(walk)
    return result


def faces(d: LinkDiagram) -> list[list[tuple[int, bool]]]:
    """The darts of each face of :func:`face_walks`, in the same order."""
    return [[corner[0] for corner in walk] for walk in face_walks(d)]


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

"""Answer checks that share no code with ``lzero``.

Each check takes what the program returned plus facts the benchmark
worked out on its own, and returns a list of problems; an empty list
means the answer is right.  This module imports nothing from ``lzero``,
so ``run.py`` can run :func:`selftest` before any child interpreter is
started.

Braid facts come straight from the braid word, not from the program's
diagram: the component count from the cycles of the braid permutation,
the signed crossing count between two components, and the determinant
as a minor of the Fox colouring matrix, taken with fraction-free
(Bareiss) elimination.
"""

from __future__ import annotations

import itertools
import json


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def braid_facts(word, strands: int) -> dict:
    """Component count, determinant and the signed count of crossings
    between components 1 and 2 of a braid closure, from the word alone.

    Components are numbered by their lowest start position.

    Letter ``+i`` sends the strand at position i over the one at i+1,
    ``-i`` sends it under; either way the two trade places.  Every
    strand is assumed to take part in some crossing.
    """
    owner = list(range(strands))          # start position of the strand at each position
    label = list(range(strands))          # Fox colouring label at each position
    rows: list[tuple[int, int, int]] = []  # (over, under_in, under_out)
    pairs: list[tuple[int, int, int]] = []  # (start_a, start_b, sign)
    nxt = strands
    for letter in word:
        i = abs(letter) - 1
        over, under = (i, i + 1) if letter > 0 else (i + 1, i)
        rows.append((label[over], label[under], nxt))
        pairs.append((owner[i], owner[i + 1], 1 if letter > 0 else -1))
        label[under] = nxt
        nxt += 1
        owner[i], owner[i + 1] = owner[i + 1], owner[i]
        label[i], label[i + 1] = label[i + 1], label[i]

    # Close the braid: the label leaving the top at a position is the
    # label entering the bottom there; the strand's start position ends
    # where owner says, which gives the permutation.
    parent = list(range(nxt))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    perm = {}
    for pos in range(strands):
        parent[find(label[pos])] = find(pos)
        perm[owner[pos]] = pos
    comp_of, comps = {}, 0
    for start in range(strands):
        if start in comp_of:
            continue
        comps += 1
        p = start
        while p not in comp_of:
            comp_of[p] = comps
            p = perm[p]

    cols = sorted({find(x) for x in range(nxt)})
    if len(cols) > len(rows):
        det = 0          # a component that never passes under is split off
    else:
        index = {c: k for k, c in enumerate(cols)}
        matrix = [[0] * len(cols) for _ in rows]
        for r, (o, a, b) in enumerate(rows):
            matrix[r][index[find(o)]] += 2
            matrix[r][index[find(a)]] -= 1
            matrix[r][index[find(b)]] -= 1
        det = abs(bareiss_det([r[:-1] for r in matrix[:-1]]))

    crossings_12 = sum(s for a, b, s in pairs if {comp_of[a], comp_of[b]} == {1, 2})
    return {"components": comps, "det": det, "crossings_12": crossings_12}


def at_2i(coeffs) -> tuple[int, int]:
    """Real and imaginary parts of sum c_d (2i)^d."""
    re = im = 0
    for deg, c in coeffs:
        v = c * 2 ** deg
        q = deg % 4
        if q == 0:
            re += v
        elif q == 1:
            im += v
        elif q == 2:
            re -= v
        else:
            im -= v
    return re, im


def check_skein(facts: dict, m: int, coeffs, lucas_k: int | None = None) -> list[str]:
    """``coeffs`` is the program's Conway polynomial as (degree, coeff) pairs."""
    problems = []
    comps = facts["components"]
    if m != comps:
        problems.append(f"diagram has {m} components, braid has {comps}")
    re, im = at_2i(coeffs)
    if re and im or abs(re) + abs(im) != facts["det"]:
        problems.append(f"nabla(2i) = {re}{im:+d}i but det = {facts['det']}")
    if lucas_k is not None and facts["det"] != lucas(2 * lucas_k) - 2:
        problems.append(f"det {facts['det']} != L_{2 * lucas_k} - 2")
    poly = dict(coeffs)
    want0 = 1 if comps == 1 else 0
    if poly.get(0, 0) != want0:
        problems.append(f"nabla(0) = {poly.get(0, 0)}, want {want0}")
    odd = [deg for deg in poly if (deg - comps + 1) % 2]
    if odd:
        problems.append(f"degrees {odd} have the wrong parity for {comps} components")
    if comps == 2:
        total = facts["crossings_12"]
        if total % 2 or poly.get(1, 0) != total // 2:
            problems.append(f"z-coefficient {poly.get(1, 0)} != signed crossings {total} / 2")
    return problems


def class_key(m: int, a, b, c) -> tuple:
    return (m, tuple(a), tuple(b), tuple(c))


def check_class(drawn: tuple, got: tuple) -> list[str]:
    return [] if drawn == got else [f"classified as {got}, drawn {drawn}"]


def class_json_expected(drawn: tuple) -> dict:
    """The CLI's JSON form of a class, built from the drawn tuple."""
    m, a, b, c = drawn
    comps = range(1, m + 1)
    return {
        "m": m,
        "a": list(a),
        "b": {"(%d,%d,%d)" % t: v for t, v in zip(itertools.combinations(comps, 3), b)},
        "c": {"(%d,%d)" % p: v for p, v in zip(itertools.combinations(comps, 2), c)},
    }


def check_cli(drawn: tuple, rc: int, stdout: str, roundtrip_equal: bool) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    try:
        got = json.loads(stdout)
    except ValueError:
        got = None
    if got != class_json_expected(drawn):
        problems.append(f"CLI printed {stdout!r} for {drawn}")
    if not roundtrip_equal:
        problems.append("parse_diagram(render_diagram(d)) != d")
    return problems


def selftest() -> list[str]:
    """Feed every check a right and a wrong answer; return what went amiss."""
    out = []

    def expect(name, problems, ok):
        if bool(problems) == ok:
            out.append(f"{name}: {'rejected a right' if ok else 'accepted a wrong'} answer")

    fig8 = braid_facts((1, -2, 1, -2), 3)
    expect("skein knot", check_skein(fig8, 1, [(0, 1), (2, -1)], lucas_k=2), True)
    expect("skein knot, coefficient changed", check_skein(fig8, 1, [(0, 1), (2, -2)], lucas_k=2), False)
    expect("skein knot, nabla(0) changed", check_skein(fig8, 1, [(0, -1), (2, -1)]), False)
    borr = braid_facts((1, -2) * 3, 3)
    expect("skein 3-link", check_skein(borr, 3, [(4, 1)], lucas_k=3), True)
    expect("skein 3-link, odd degree added", check_skein(borr, 3, [(4, 1), (5, 1)]), False)
    two = braid_facts((1, -2, 3, 1, -2, 3), 4)
    expect("skein 2-link", check_skein(two, 2, [(1, 2), (3, -1)]), True)
    expect("skein 2-link, z-coefficient changed", check_skein(two, 2, [(1, -2), (3, -1)]), False)
    expect("skein, component count changed", check_skein(two, 3, [(1, 2), (3, -1)]), False)

    drawn = class_key(3, (1, 0, 0), (-2,), (0, 1, 1))
    expect("reps", check_class(drawn, class_key(3, (1, 0, 0), (-2,), (0, 1, 1))), True)
    expect("reps, bit flipped", check_class(drawn, class_key(3, (1, 0, 0), (-2,), (0, 0, 1))), False)

    good = json.dumps(class_json_expected(drawn), indent=2, sort_keys=True) + "\n"
    flipped = good.replace('"(1,2)": 0', '"(1,2)": 1')
    expect("cli", check_cli(drawn, 0, good, True), True)
    expect("cli, bit flipped", check_cli(drawn, 0, flipped, True), False)
    expect("cli, exit status 1", check_cli(drawn, 1, good, True), False)
    expect("cli, round trip differs", check_cli(drawn, 0, good, False), False)
    return out

"""Seeded inputs of the three workloads, made without ``lzero``.

Inputs come in blocks of a fixed make-up (``REPS_COUNTS``,
``SKEIN_CROSSINGS`` x ``SKEIN_SHAPES``, ``SCRAMBLED_COUNTS`` plus one
``r3_fault_op``); the seed picks the classes, words and walks inside
that make-up, so the amount of work is nearly the same for every seed.
It also shuffles each block, so that each size class is spread over the
whole round: op_ms_p50 and op_ms_p90 then sample the machine's speed
over the whole run, not over one stretch of it.
``make(workload, seed, blocks)`` returns a JSON-ready list of operation
descriptions; ``worker.py`` turns them into diagrams.
"""

from __future__ import annotations

import random

import checks

# reps: operations per component count in a block, 100 in all.  The
# counts put the median operation in the middle of the m=4 group and
# the 90th percentile in the middle of the m=6 group, not on a boundary
# between groups, where a small shift would move it a lot.
REPS_COUNTS = {3: 20, 4: 60, 5: 4, 6: 12, 7: 3, 8: 1}
# |b| per triple cycles through this pattern (mean 3/4) before shuffling,
# so the number of Borromean insertions per m is seed-independent.
B_PATTERN = (1, 0, 1, 1)

# skein: the Lucas-family closures (s1 s2^-1)^k once, then per block,
# for each crossing count, the (strands, components, words) its parity
# allows (3 strands: even -> 1 or 3 components, odd -> 2; 4 strands:
# even -> 2, odd -> 1 or 3).  Three strands give few distinct words
# (119 three-component classes up to rotation at 12 crossings), so they
# get fewer words per block than four.
LUCAS_K = (5, 6, 7, 8)
SKEIN_CROSSINGS = range(11, 16)
SKEIN_SHAPES = {0: ((3, 1, 2), (3, 3, 2), (4, 2, 4)),
                1: ((3, 2, 2), (4, 1, 4), (4, 3, 4))}
MAX_DRAWS = 100_000

# scrambled: seeded operations per component count in a block; the
# median operation falls inside the m=3 group.  Each block ends with one
# r3_fault_op.
SCRAMBLED_COUNTS = {2: 25, 3: 50, 4: 25}


def draw_class(rng: random.Random, m: int, scale: bool) -> list:
    """A class [m, a, b, c] with ``a`` and ``c`` bits, ``b`` per lex triple.

    With ``scale`` half the Arf and pair bits are set and the triple
    magnitudes follow ``B_PATTERN``; otherwise one bit of each kind and
    one triple of magnitude 1 are set.  Positions are drawn, and so is
    which half of the triples is negative; fixing the counts keeps the
    crossing count of a representative close to seed-independent.
    """
    triples = m * (m - 1) * (m - 2) // 6
    pairs = m * (m - 1) // 2
    a = [0] * m
    for i in rng.sample(range(m), m // 2 if scale else 1):
        a[i] = 1
    c = [0] * pairs
    for i in rng.sample(range(pairs), pairs // 2 if scale else 1):
        c[i] = 1
    if scale:
        b = [B_PATTERN[i % len(B_PATTERN)] for i in range(triples)]
        rng.shuffle(b)
    else:
        b = [0] * triples
        if triples:
            b[rng.randrange(triples)] = 1
    nonzero = [i for i, v in enumerate(b) if v]
    flips = len(nonzero) // 2 + (len(nonzero) % 2 and rng.random() < 0.5)
    for i in rng.sample(nonzero, flips):
        b[i] = -b[i]
    return [m, a, b, c]


def alternating_word(rng: random.Random, strands: int, crossings: int) -> tuple:
    """Odd generators positive, even ones negative: an alternating diagram.

    Every generator occurs at least twice, so every strand takes part
    and no crossing is nugatory.
    """
    while True:
        word = tuple(i if i % 2 else -i
                     for i in (rng.randint(1, strands - 1) for _ in range(crossings)))
        if all(sum(1 for x in word if abs(x) == g) >= 2 for g in range(1, strands)):
            return word


def rotations(word: tuple) -> set:
    return {word[i:] + word[:i] for i in range(len(word))}


def skein_ops(rng: random.Random, blocks: int) -> list[dict]:
    """Braid words with the checker's facts, distinct up to rotation."""
    words = [((1, -2) * k, 3, k) for k in LUCAS_K]
    seen = set().union(*(rotations(w) for w, _, _ in words))
    for _ in range(blocks):
        block = []
        for n in SKEIN_CROSSINGS:
            for strands, comps, count in SKEIN_SHAPES[n % 2]:
                for _ in range(count):
                    for _ in range(MAX_DRAWS):
                        word = alternating_word(rng, strands, n)
                        if (checks.braid_facts(word, strands)["components"] == comps
                                and not seen & rotations(word)):
                            break
                    else:
                        raise ValueError(f"too few distinct {strands}-strand words "
                                         f"of {n} crossings for {blocks} blocks")
                    seen |= rotations(word)
                    block.append((word, strands, None))
        rng.shuffle(block)
        words += block
    return [{"word": list(w), "strands": s, "lucas_k": k,
             "facts": checks.braid_facts(w, s)} for w, s, k in words]


def r3_fault_op(block: int) -> dict:
    """The same operation for every seed: a 3-component representative
    with b = +1 and the Arf and pair bits of ``block`` (mod 64), moved by
    the first R3 site in ``render_site`` order.  Every such move makes
    ``classify`` report a wrong triple linking number today (see
    CHANGES.md), so this operation fails in every block of every run,
    and ``known_fault`` keeps it out of ``correct``."""
    bits = [(block % 64 >> i) & 1 for i in range(6)]
    return {"class": [3, bits[:3], [1], bits[3:]], "walk_seed": None,
            "known_fault": True}


def make(workload: str, seed: int, blocks: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "skein":
        return skein_ops(rng, blocks)
    ops = []
    for k in range(blocks):
        if workload == "reps":
            block = [{"class": draw_class(rng, m, scale=True)}
                     for m, count in REPS_COUNTS.items() for _ in range(count)]
        else:
            block = [{"class": draw_class(rng, m, scale=False), "walk_seed": rng.getrandbits(64)}
                     for m, count in SCRAMBLED_COUNTS.items() for _ in range(count)]
        rng.shuffle(block)
        ops += block
        if workload == "scrambled":
            ops.append(r3_fault_op(k))
    return ops

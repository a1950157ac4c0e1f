#!/usr/bin/env python3
"""A seeded walk of strand moves on a large representative, through the
library, with every result checked by the whole ``validate``.

Each move is certified by the patch it wrote; ``validate`` (slot checks
and the face count) is the oracle.  The kinds take turns (R1+, R2+, R3,
R1-, R2-), and a kind with no site at its step is skipped; the walk's
CPU time in ``apply_move`` is printed.  Exits 1 on the first result
that ``validate`` refuses.

Usage::

    python3 scripts/move_walk.py [--moves N] [--components M] [--seed S]
"""

import argparse
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lzero.classify import representative
from lzero.diagram import validate
from lzero.moves import apply_move, enumerate_sites, render_site
from util import random_class

KINDS = ("R1+", "R2+", "R3", "R1-", "R2-")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--moves", type=int, default=40)
    parser.add_argument("--components", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    d = representative(random_class(random.Random(args.components), args.components))
    print(f"representative at m = {args.components}: {len(d.crossings)} crossings")
    rng = random.Random(args.seed)
    spent, done = 0.0, 0
    for step in range(args.moves):
        kind = KINDS[step % len(KINDS)]
        sites = enumerate_sites(d, kind)
        if not sites:
            print(f"step {step + 1}: no {kind} site, skipped")
            continue
        site = rng.choice(sites)
        t0 = time.process_time()
        d = apply_move(d, site)
        spent += time.process_time() - t0
        done += 1
        problems = validate(d)
        if problems:
            print(f"move {step + 1} ({render_site(site)}): {problems}")
            return 1
    print(f"{done} moves, every result valid; "
          f"apply_move CPU time {1000 * spent:.1f} ms "
          f"({1000 * spent / max(done, 1):.2f} ms a move)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

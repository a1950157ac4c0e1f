#!/usr/bin/env python3
"""Demonstration run: classify the bundled diagrams, then round-trip a
batch of random classes through representative() and classify().

Usage::

    python3 scripts/classify_demo.py [--trials N] [--max-components M]
                                     [--seed S]
"""

import argparse
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lzero import fixtures
from lzero.classify import (classify, is_zero_solvable, render_class,
                            representative)
from lzero.errors import LZeroError
from util import random_class


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50,
                        help="random round-trip trials (default 50)")
    parser.add_argument("--max-components", type=int, default=4,
                        help="largest m to draw (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    args = parser.parse_args()

    print("bundled diagrams")
    print("----------------")
    for name in fixtures.NAMES:
        d = fixtures.load(name)
        report = is_zero_solvable(d)
        try:
            cls = render_class(classify(d))
        except LZeroError as exc:
            cls = f"({exc})"
        print(f"{name:11s} -> {cls}")
        print(f"{'':11s}    solvable: {report.solvable}"
              f"  obstruction: {report.obstruction or 'none'}")

    print()
    print(f"round-tripping {args.trials} random classes "
          f"(m <= {args.max_components}, seed {args.seed})")
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(args.trials):
        m = rng.randint(1, args.max_components)
        g = random_class(rng, m)
        t1 = time.perf_counter()
        d = representative(g)
        back = classify(d)
        dt = time.perf_counter() - t1
        worst = max(worst, dt)
        status = "ok" if back == g else "MISMATCH"
        if status != "ok" or trial < 5:
            print(f"  {render_class(g):40s} "
                  f"[{len(d.crossings):3d} crossings] {status}")
        if back != g:
            return 1
    total = time.perf_counter() - t0
    print(f"  ... all {args.trials} round trips exact "
          f"({total:.2f}s total, worst single {worst * 1000:.0f}ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands::

    lzero invariants FILE      linking / Arf / triple / pair battery
    lzero conway FILE          Conway polynomial of the diagram
    lzero classify FILE        class tuple (requires zero linking)
    lzero solvable FILE        trivial-class test with obstruction
    lzero equiv FILE1 FILE2    compare two diagrams' classes
    lzero rep CLASS            build a representative diagram
    lzero move FILE SITE       apply a local move, print the new code

Every subcommand accepts ``--json`` for machine-readable output and
``--out PATH`` to write the result to a file instead of stdout.  Output
bytes are deterministic for a given input.  Setting ``LZERO_COLOR=1``
colors yes/no verdicts when printing plain text to stdout;
``LZERO_COLOR=0`` (or unset) keeps output plain.

Exit codes: 0 success, 1 for domain refusals (an invariant or class
genuinely undefined for the input, a move that does not match), 2 for
unusable input (unreadable file, syntax error, structural violations,
a code that is not a planar diagram),
3 for work over a budget (a representative over its crossing budget)
or a run out of memory or recursion depth.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .classify import (class_json, classify, is_zero_solvable, parse_class,
                       render_class, representative)
from .conway import conway_polynomial
from .diagram import parse_diagram, render_diagram
from .errors import DiagramParseError, LZeroError, ResourceLimitError
from .invariants import invariant_tuple, invariants_json, render_invariants
from .moves import apply_move, parse_site, render_site

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _read_diagram(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DiagramParseError(f"cannot read {path}: {exc.strerror or exc}")
    return parse_diagram(text)


# Each handler returns (text, json_object).


def _cmd_invariants(args):
    t = invariant_tuple(_read_diagram(args.file))
    return render_invariants(t), invariants_json(t)


def _cmd_conway(args):
    poly = conway_polynomial(_read_diagram(args.file))
    return poly.text() + "\n", {"conway": poly.json_pairs(),
                                "text": poly.text()}


def _cmd_classify(args):
    g = classify(_read_diagram(args.file))
    return render_class(g) + "\n", class_json(g)


def _cmd_solvable(args):
    r = is_zero_solvable(_read_diagram(args.file))
    text = (f"solvable: {_yn(r.solvable)}\n"
            f"grope_class_2: {_yn(r.grope_class_2)}\n"
            f"whitney_tower_order_2: {_yn(r.whitney_tower_order_2)}\n"
            f"obstruction: {r.obstruction or 'none'}\n")
    return text, {"solvable": r.solvable,
                  "grope_class_2": r.grope_class_2,
                  "whitney_tower_order_2": r.whitney_tower_order_2,
                  "obstruction": r.obstruction}


def _cmd_equiv(args):
    g1 = classify(_read_diagram(args.file1))
    g2 = classify(_read_diagram(args.file2))
    same = g1 == g2
    text = (f"equivalent: {_yn(same)}\n"
            f"left: {render_class(g1)}\n"
            f"right: {render_class(g2)}\n")
    return text, {"equivalent": same, "left": class_json(g1),
                  "right": class_json(g2)}


def _cmd_rep(args):
    g = parse_class(args.cls)
    d = representative(g)
    text = render_diagram(d)
    return text, {"class": class_json(g), "diagram": text}


def _cmd_move(args):
    d = _read_diagram(args.file)
    site = parse_site(args.site)
    moved = apply_move(d, site)
    text = render_diagram(moved)
    return text, {"site": render_site(site), "diagram": text}


# Built once per process; the handlers look their engines up at call time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzero",
        description="Diagram-level link invariants and classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")
        p.set_defaults(handler=handler)
        return p

    p = add("invariants", _cmd_invariants, "invariant battery of a diagram")
    p.add_argument("file")
    p = add("conway", _cmd_conway, "Conway polynomial of a diagram")
    p.add_argument("file")
    p = add("classify", _cmd_classify, "class tuple of a diagram")
    p.add_argument("file")
    p = add("solvable", _cmd_solvable, "trivial-class test")
    p.add_argument("file")
    p = add("equiv", _cmd_equiv, "compare the classes of two diagrams")
    p.add_argument("file1")
    p.add_argument("file2")
    p = add("rep", _cmd_rep, "representative diagram of a class")
    p.add_argument("cls", metavar="CLASS",
                   help="class string, e.g. 'm=2; a=1,0; b=; c=1'")
    p = add("move", _cmd_move, "apply a local move to a diagram")
    p.add_argument("file")
    p.add_argument("site", metavar="SITE",
                   help="move site, e.g. 'R1- crossings=2'")
    return parser


def _colorize(text: str) -> str:
    return (text.replace(": yes", f": {_GREEN}yes{_RESET}")
                .replace(": no", f": {_RED}no{_RESET}"))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, payload = args.handler(args)
    except (LZeroError, MemoryError, RecursionError) as exc:
        if isinstance(exc, MemoryError):
            exc = ResourceLimitError("out of memory")
        elif isinstance(exc, RecursionError):
            exc = ResourceLimitError("out of recursion depth")
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code

    if args.json:
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        if not args.json and os.environ.get("LZERO_COLOR") == "1":
            out = _colorize(out)
        sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in spans around the public functions of each ``lzero`` layer.

Modules bind each other's functions by name (``triple_linking`` lives
in ``lzero.milnor`` and is bound again in ``lzero.invariants``,
``lzero.classify`` and the package), so a wrapper replaces every
binding of the original function in every loaded ``lzero`` module.
Nothing under ``src/`` changes, and :meth:`Tracer.uninstall` puts every
binding back.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span or -1, ``op`` the operation id, or -1 during set-up.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

LAYERS = {
    "diagram": ("parse_diagram", "render_diagram", "validate", "sublink",
                "faces", "delete_crossings"),
    "moves": ("enumerate_sites", "apply_move"),
    "conway": ("conway_polynomial", "canonical_key", "switch_crossing",
               "smooth_crossing"),
    "milnor": ("linking_number", "triple_linking", "wirtinger",
               "magnus_expand"),
    "invariants": ("arf", "sato_levine", "invariant_tuple"),
    "classify": ("classify", "representative"),
    "construct": ("build_from_gadgets", "braid_closure"),
    "cli": ("main",),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.sites_found = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for mod, fns in LAYERS.items():
            module = importlib.import_module("lzero." + mod)
            for fn in fns:
                orig = getattr(module, fn)
                wrapped = self._wrap(f"{mod}.{fn}", orig)
                for name, m in list(sys.modules.items()):
                    if name != "lzero" and not name.startswith("lzero."):
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_sites = name == "moves.enumerate_sites"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count_sites:
                self.sites_found += len(result)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """``<span>_ms`` (outermost calls only), ``<span>_self_ms`` and
        ``<span>_calls`` for every wrapped function."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_ms"] = out[f"{name}_self_ms"] = 0.0
            out[f"{name}_calls"] = 0
        for k, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}_calls"] += 1
            out[f"{name}_self_ms"] += (end - start - child[k]) * 1e3
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}_ms"] += (end - start) * 1e3
        out["moves.sites_found"] = self.sites_found
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

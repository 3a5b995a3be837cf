"""In-memory spans around symmeq's public functions, recorded from outside.

`Tracer.install()` wraps each function in TARGETS and rebinds every name
under which a loaded symmeq module refers to it, so calls between modules
(`from .simplex import lp_solve`) are traced too; `uninstall()` restores
the originals.  A span is (name, start, end, parent, op, counts).  Self
time is a span's duration minus that of its direct children, so the self
times of one operation add up to its root span.
"""

import functools
import json
import sys
import time

# (module, function, counts from (args, kwargs, result))
TARGETS = (
    ("cli", "main", None),
    ("optimize", "membership", None),
    ("optimize", "max_utility", None),
    (
        "simplex",
        "lp_solve",
        lambda a, k, r: {
            "cells": (len(a[0].inequalities) + len(a[0].equalities))
            * a[0].num_vars
        },
    ),
    ("sdp", "problem_from_system", None),
    ("sdp", "sdp_solve", lambda a, k, r: {"centerings": r.iterations}),
    ("polytope", "enumerate_vertices", lambda a, k, r: {"vertices": len(r)}),
    ("nash", "enumerate_nash", None),
    ("exchange", "certify_conditionally_iid", None),
    ("exchange", "is_psd_exact", None),
    (
        "exchange",
        "cp_factorize",
        lambda a, k, r: {"exact": int(r is not None and r.exact)},
    ),
    (
        "orbits",
        "extendability_lp",
        lambda a, k, r: {"orbit_vars": r.system.num_vars},
    ),
    (
        "orbits",
        "extension_lp",
        lambda a, k, r: {"orbit_vars": r.system.num_vars},
    ),
)

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, counts]
        self._stack = []
        self._op = -1
        self._patches = []   # (module, attribute, original)

    def span(self, name, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else None, self._op, None]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id, fn):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        return self.span(ROOT, fn)()

    def install(self):
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "symmeq" or name.startswith("symmeq.")
        }
        for short, fname, counts in TARGETS:
            orig = getattr(mods["symmeq." + short], fname)
            wrapped = self.span(f"{short}.{fname}", orig, counts)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def summary(self):
        """Per-name calls, total and self seconds, and summed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent, op, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
            for key, val in (counts or {}).items():
                row[key] = row.get(key, 0) + val
        return out

    def dump(self, path):
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op", "counts"],
                    "spans": [
                        [n, round(s - base, 7), round(e - base, 7), p, o, c]
                        for n, s, e, p, o, c in self.spans
                    ],
                },
                fh,
            )

"""Layer trace of a jigroup run, installed from outside the program.

`Tracer.install()` wraps the public functions and methods of every layer
module under `src/jigroup`, and the constructors of its public classes, and
rebinds each wrapped function in every `jigroup.*` namespace that imported
it.  A wrapped call records a span (layer, name, start, end, parent index)
in memory; `Tracer.snapshot()` hands them out after the run and
`layer_metrics` turns a snapshot into per-layer self time, entry-point calls
and counts.

Helpers that act on one permutation, one field or p-adic element or one
table entry get no span: a span each would cost more than their work, so
their time counts toward the span that called them.  The four field
operations of `CycloContext` are timed as leaves instead: their calls and
seconds are summed per parent span, not recorded one by one.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("perm", "smallgrp", "cyclotomic", "chartab", "ratmat", "padic", "rep",
          "hilbert", "basal", "wreath", "profiles", "profile_io")
OUTSIDE = "outside"

# Helpers called per permutation, per polynomial or per table entry.
INLINE = {
    "perm": {"identity_perm", "check_perm", "mul", "inv", "conj", "perm_power",
             "perm_order", "cycles", "perm_from_cycles", "support"},
    "smallgrp": {"SmallGroupTable.mult", "SmallGroupTable.conj"},
    "ratmat": {"F", "poly_trim", "poly_deg"},
}

# Classes whose methods act on single field or p-adic elements.
VALUE_CLASSES = {"PadicApprox", "QuadExt", "CycloContext", "NumberRing"}

# Timed and counted as leaves: the field operations of Q(zeta_e).
CYCLO_OPS = {("cyclotomic", f"CycloContext.{op}") for op in ("mul", "add", "conj", "scale")}


def _defined_in(fn, module):
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _public(name):
    return not name.startswith("_")


class Tracer:
    """Spans, leaves and counts of one process; install once, before the run."""

    def __init__(self):
        self.spans = []  # [layer, name, start_s, end_s, parent span index or -1]
        self.leaves = {}  # (layer, name) -> {parent span index: [calls, seconds]}
        self.counts = Counter()
        self._stack = []
        self._tables_seen = set()

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, name, fn, observe=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, layer, name, fn):
        per_parent = self.leaves.setdefault((layer, name), {})
        stack = self._stack
        clock = time.perf_counter

        def timed(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                seconds = clock() - t0
                parent = stack[-1] if stack else -1
                acc = per_parent.get(parent)
                if acc is None:
                    per_parent[parent] = [1, seconds]
                else:
                    acc[0] += 1
                    acc[1] += seconds

        timed.__wrapped__ = fn
        return timed

    def _observe_small_table(self, table):
        self.counts["smallgrp.small_table_calls"] += 1
        if id(table) in self._tables_seen:
            self.counts["smallgrp.small_table_hits"] += 1
        self._tables_seen.add(id(table))

    def _observe_character_table(self, table):
        self.counts["chartab.classes"] += table.n_classes

    def _wrap(self, layer, name, fn):
        if (layer, name) in CYCLO_OPS:
            return self._leaf(layer, name, fn)
        observe = {
            ("smallgrp", "small_table"): self._observe_small_table,
            ("chartab", "character_table"): self._observe_character_table,
        }.get((layer, name))
        return self._span(layer, name, fn, observe)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every layer module; call after `import jigroup.cli`."""
        modules = [m for n, m in sys.modules.items()
                   if n == "jigroup" or n.startswith("jigroup.")]
        for layer in LAYERS:
            module = sys.modules[f"jigroup.{layer}"]
            for name, obj in list(vars(module).items()):
                if not _public(name):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == module.__name__:
                        self._install_class(layer, module, obj)
                elif (callable(obj) and name not in INLINE.get(layer, ())
                      and _defined_in(obj, module)):
                    wrapped = self._wrap(layer, name, obj)
                    for ns in modules:
                        if vars(ns).get(name) is obj:
                            setattr(ns, name, wrapped)
        self._count_constructions(sys.modules["jigroup.padic"].PrecisionExhausted,
                                  "padic.exhausted")

    def _install_class(self, layer, module, cls):
        for attr, obj in list(vars(cls).items()):
            name = f"{cls.__name__}.{attr}"
            if not (_public(attr) or attr == "__init__") or name in INLINE.get(layer, ()):
                continue
            if cls.__name__ in VALUE_CLASSES and (layer, name) not in CYCLO_OPS:
                continue
            if isinstance(obj, (staticmethod, classmethod)):
                if _defined_in(obj.__func__, module):
                    setattr(cls, attr, type(obj)(self._wrap(layer, name, obj.__func__)))
            elif inspect.isfunction(obj) and _defined_in(obj, module):
                setattr(cls, attr, self._wrap(layer, name, obj))

    def _count_constructions(self, cls, key):
        init = cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init

    # -- output ------------------------------------------------------------------

    def snapshot(self):
        """The trace as plain JSON-ready data; `layer_metrics` reads it."""
        return {
            "spans": self.spans,
            "leaves": [[layer, name, parent, calls, seconds]
                       for (layer, name), per_parent in self.leaves.items()
                       for parent, (calls, seconds) in per_parent.items()],
            "counts": dict(self.counts),
        }


def layer_metrics(trace, wall_s):
    """Per-layer self time and entry-point calls, plus the named counts.

    A span's self time is its duration minus the time of its direct children,
    spans and leaves; they nest, because the program is single-threaded.  A
    call is an entry-point call when its caller is in another layer or
    outside every span.  `outside` is the part of `wall_s` (the traced
    `run_command`) that no top-level span or leaf covers.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    self_s = Counter()
    calls = Counter()
    by_name = Counter()
    top = 0.0

    def record(layer, name, parent, n, seconds):
        nonlocal top
        self_s[layer] += seconds
        by_name[f"{layer}.{name}"] += n
        if parent < 0:
            top += seconds
        else:
            child[parent] += seconds
        if parent < 0 or spans[parent][0] != layer:
            calls[layer] += n

    for layer, name, start, end, parent in spans:
        record(layer, name, parent, 1, end - start)
    for layer, name, parent, n, seconds in trace["leaves"]:
        record(layer, name, parent, n, seconds)
    for i, span in enumerate(spans):
        self_s[span[0]] -= child[i]

    counts = trace["counts"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out[f"{OUTSIDE}.self_s"] = wall_s - top
    out["perm.groups_built"] = by_name["perm.PermGroup.__init__"]
    out["cyclotomic.ops"] = sum(by_name[f"{layer}.{name}"] for layer, name in CYCLO_OPS)
    out["chartab.classes"] = counts.get("chartab.classes", 0)
    out["ratmat.rref_calls"] = by_name["ratmat.rref"]
    out["ratmat.minpoly_calls"] = by_name["ratmat.minimal_polynomial"]
    out["padic.echelon_calls"] = by_name["padic.prow_echelon"]
    out["padic.exhausted"] = counts.get("padic.exhausted", 0)
    out["rep.commutant_calls"] = by_name["rep.commutant"]
    return out

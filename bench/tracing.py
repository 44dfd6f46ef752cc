"""Per-layer spans and counters for the traced benchmark run.

:meth:`Tracer.install` wraps the public functions of every layer module
(the names in its ``__all__``) wherever a ``legknot`` module binds them, so
a call from one layer into another is caught as well as a call from the
benchmark.  The constructors of ``FrontDiagram`` and ``DiskChordDiagram``
are wrapped too, to count diagrams built.

Spans are recorded only while an operation runs.  Each span keeps its
layer, name, start, end, parent and a weight (events built, monodromy
power, continued-fraction terms, peaks built or normalize steps).  The
spans of one operation stay in memory until it ends and are then folded
into per-layer totals; a layer's self time is its spans' durations minus
the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("cli", "front", "classify", "transversal", "lattice", "convex", "bypass")

# What a span's weight records, for the spans that carry one.
_WEIGHTS = {
    ("front", "FrontDiagram"): lambda args, kwargs, result: len(args[0].events),
    ("lattice", "monodromy_vec"): lambda args, kwargs, result: abs(args[1] if len(args) > 1 else kwargs.get("k", 1)),
    ("lattice", "neg_cf"): lambda args, kwargs, result: len(result),
    ("classify", "peaks"): lambda args, kwargs, result: len(result),
    ("bypass", "normalize"): lambda args, kwargs, result: result.steps,
}

_UNDER_STABILIZE, _UNDER_NORMALIZE = 1, 2


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # [layer, name, start_ns, end_ns, parent index, weight]
        self.stack = []
        self.totals = Counter()

    def install(self) -> None:
        from legknot import convex, front

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules["legknot." + layer]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for modname, module in list(sys.modules.items()):
            if modname == "legknot" or modname.startswith("legknot."):
                for name, value in list(vars(module).items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, name, hit[1])
        for layer, cls in (("front", front.FrontDiagram), ("convex", convex.DiskChordDiagram)):
            cls.__init__ = self._wrap(layer, cls.__name__, cls.__init__)

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self.stack
        weight = _WEIGHTS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, name, perf_counter_ns(), 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter_ns()
            if weight is not None:
                span[5] = weight(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self):
        """Record the spans of one operation, then fold them into the totals."""
        self.spans.clear()
        self.stack.clear()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._fold()

    def add(self, key: str, value) -> None:
        self.totals[key] += value

    def _fold(self) -> None:
        t = self.totals
        spans = self.spans
        child_ns = [0] * len(spans)
        under = [0] * len(spans)
        layers = set()
        for i, (layer, name, start, end, parent, weight) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                under[i] = under[parent]
            if name == "stabilize_diagram":
                under[i] |= _UNDER_STABILIZE
            elif name == "normalize":
                under[i] |= _UNDER_NORMALIZE
        for i, (layer, name, start, end, parent, weight) in enumerate(spans):
            layers.add(layer)
            t[layer + ".calls"] += 1
            t[layer + ".self_ns"] += end - start - child_ns[i]
            if name == "FrontDiagram":
                t["front.builds"] += 1
                t["front.events_built"] += weight
                t["front.build_ns"] += end - start
                if under[i] & _UNDER_STABILIZE:
                    t["front.builds_in_stabilize"] += 1
            elif name == "stabilize_diagram":
                t["front.stabilizations"] += 1
            elif name == "peaks":
                t["classify.peaks_built"] += weight
            elif name == "monodromy_vec":
                t["lattice.monodromy_calls"] += 1
                t["lattice.monodromy_power"] += weight
                if under[i] & _UNDER_NORMALIZE:
                    t["bypass.monodromy_in_normalize"] += 1
            elif name == "neg_cf":
                t["lattice.neg_cf_terms"] += weight
            elif name == "DiskChordDiagram":
                t["convex.chord_diagrams"] += 1
            elif name == "normalize":
                t["bypass.normalize_calls"] += 1
                t["bypass.steps"] += weight
                t["bypass.normalize_ns"] += end - start
        if "classify" in layers:
            t["classify.queries"] += 1
        t["trace.spans"] += len(spans)

    def metrics(self, attempted: int, op_ns: int) -> dict:
        """Every per-layer metric as name -> (value, unit)."""
        t = self.totals

        def ms(key):
            return t[key] / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "cli.calls": (t["cli.calls"], "count"),
            "cli.self_ms": (ms("cli.self_ns"), "ms"),
            "cli.out_bytes": (t["cli.out_bytes"], "bytes"),
            "front.builds": (t["front.builds"], "count"),
            "front.events_built": (t["front.events_built"], "count"),
            "front.self_ms": (ms("front.self_ns"), "ms"),
            "front.us_per_event": (ratio(t["front.build_ns"] / 1e3, t["front.events_built"]), "us"),
            "front.stabilizations": (t["front.stabilizations"], "count"),
            "front.builds_per_stabilization": (ratio(t["front.builds_in_stabilize"], t["front.stabilizations"]),
                                               "ratio"),
            "classify.calls": (t["classify.calls"], "count"),
            "classify.self_ms": (ms("classify.self_ns"), "ms"),
            "classify.peaks_built": (t["classify.peaks_built"], "count"),
            "classify.peaks_per_query": (ratio(t["classify.peaks_built"], t["classify.queries"]), "ratio"),
            "transversal.calls": (t["transversal.calls"], "count"),
            "transversal.self_ms": (ms("transversal.self_ns"), "ms"),
            "lattice.monodromy_calls": (t["lattice.monodromy_calls"], "count"),
            "lattice.monodromy_power": (t["lattice.monodromy_power"], "count"),
            "lattice.neg_cf_terms": (t["lattice.neg_cf_terms"], "count"),
            "lattice.self_ms": (ms("lattice.self_ns"), "ms"),
            "convex.calls": (t["convex.calls"], "count"),
            "convex.self_ms": (ms("convex.self_ns"), "ms"),
            "convex.chord_diagrams": (t["convex.chord_diagrams"], "count"),
            "bypass.normalize_calls": (t["bypass.normalize_calls"], "count"),
            "bypass.steps": (t["bypass.steps"], "count"),
            "bypass.self_ms": (ms("bypass.self_ns"), "ms"),
            "bypass.ms_per_step": (ratio(ms("bypass.normalize_ns"), t["bypass.steps"]), "ms"),
            "bypass.monodromy_calls_per_step": (ratio(t["bypass.monodromy_in_normalize"], t["bypass.steps"]),
                                                "ratio"),
            "trace.spans": (t["trace.spans"], "count"),
            "trace.op_mean_ms": (ratio(op_ns / 1e6, attempted), "ms"),
        }
        return out

"""Per-layer tracing for the regsimplex benchmark, applied from outside.

``Tracer.install`` replaces the public functions of each regsimplex module
(every module-level function of ``cli``) with wrappers, in every module that
holds a reference to them, and ``uninstall`` puts the originals back.  The
program's source is not touched.

A timed wrapper records a span (item, id, parent id, name, start, end) in
memory.  A function called hundreds of thousands of times per item (the
``Quad3`` operators, the structured predicate, the chord classifier) is only
counted, so its time stays in the self time of the span that called it.
Self time is a span's duration minus the time its child spans cover.

Work done inside ``multiprocessing`` workers is invisible here: the pooled
tick census shows up as one ``census.brute_force_structured`` span whose CPU
time includes its children, but its predicate calls are not counted.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import resource
import sys
import time
from collections import Counter
from math import comb

MODULES = ("exactnum", "geometry", "lenz", "census", "formulas", "hypergraph", "cli")
QUAD3_OPS = ("__add__", "__sub__", "__mul__", "__eq__", "__lt__")
COUNTED_ONLY = ("census.is_structured_simplex", "census.tick_chord_class")

#: Self-time metrics: the span names whose self times they sum.
SELF_TIME = {
    "geometry.sq_dist_s": ("geometry.sq_dist",),
    "census.coords_s": ("census.count_brute_force",),
    "census.ticks_s": ("census.brute_force_structured",),
    "census.closed_s": (
        "census.count_structured",
        "census.count_good_pairs",
        "census.count_inscribed_triangles",
    ),
    "formulas.eval_f_k_s": ("formulas.eval_f_k",),
    "lenz.build_s": ("lenz.build_even_config", "lenz.build_odd_config", "lenz.place_on_circle"),
    "lenz.embed_s": ("lenz.embed_config",),
    "hypergraph.build_s": ("hypergraph.build_simplex_hypergraph",),
    "hypergraph.blowup_s": ("hypergraph.blowup",),
    "hypergraph.contains_s": ("hypergraph.contains_copy",),
}
#: Call-count metrics: the span name whose calls they count.
CALLS = {
    "geometry.sq_dist_calls": "geometry.sq_dist",
    "formulas.eval_f_k_calls": "formulas.eval_f_k",
    "formulas.maximize_calls": "formulas.maximize_f_k",
    "hypergraph.contains_calls": "hypergraph.contains_copy",
    "cli.commands": "cli.main",
}
#: Counters filled by the wrappers below (and, for deadline hits, by the runner).
COUNTERS = (
    "exactnum.quad3_ops",
    "census.coords_subsets",
    "census.coords_hits",
    "census.ticks_cpu_s",
    "census.ticks_subsets",
    "census.ticks_hits",
    "census.predicate_calls",
    "formulas.partitions_examined",
    "formulas.windows_tried",
    "formulas.tie_set_size",
    "hypergraph.build_edges",
    "hypergraph.contains_deadline_hits",
)


def _cpu_with_children() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._calls: Counter = Counter()
        self._self: Counter = Counter()
        self._patches: list[tuple] = []
        self._ids = itertools.count()

    # -- spans --------------------------------------------------------------

    def _parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def _timed(self, name, fn):
        tracer = self
        stack = self._stack
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = next(ids)
            frame = [span_id, name, time.perf_counter(), 0.0]
            stack.append(frame)
            cpu0 = _cpu_with_children() if name == "census.brute_force_structured" else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                tracer._calls[name] += 1
                tracer._self[name] += duration - frame[3]
                tracer.spans.append((tracer.item, span_id, parent, name, frame[2], end))
            tracer._observe(name, args, result, cpu0)
            return result

        return wrapper

    def _observe(self, name, args, result, cpu0) -> None:
        """Counters derived from a finished call's arguments and result."""
        c = self.counts
        if name == "census.count_brute_force":
            c["census.coords_subsets"] += comb(len(args[0]), args[1])
            c["census.coords_hits"] += result
        elif name == "census.brute_force_structured":
            c["census.ticks_subsets"] += comb(args[0].n, args[1])
            c["census.ticks_hits"] += result.total
            c["census.ticks_cpu_s"] += _cpu_with_children() - cpu0
        elif name == "formulas.eval_f_k" and self._parent_name() == "formulas.maximize_f_k":
            c["formulas.partitions_examined"] += 1
        elif name == "formulas.maximize_f_k":
            c["formulas.tie_set_size"] += len(result.argmax)
            if self._parent_name() == "cli._choose_partition":
                c["formulas.windows_tried"] += 1
        elif name == "hypergraph.build_simplex_hypergraph":
            c["hypergraph.build_edges"] += result.e

    def _counted(self, name, fn):
        counts = self.counts

        if name == "census.is_structured_simplex":
            @functools.wraps(fn)
            def predicate(config, selection):
                hit = fn(config, selection)
                counts["census.predicate_calls"] += 1
                counts["census.predicate_hits"] += hit
                return hit

            return predicate

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every module, wherever referenced."""
        modules = {m: sys.modules[f"regsimplex.{m}"] for m in MODULES}
        replace = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and short != "cli":
                    continue
                name = f"{short}.{attr}"
                if name in COUNTED_ONLY:
                    replace[obj] = self._counted(name, obj)
                else:
                    replace[obj] = self._timed(name, obj)
        for mod in sys.modules.copy().values():
            if getattr(mod, "__name__", "").startswith("regsimplex"):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replace:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, replace[obj])
        quad3 = modules["exactnum"].Quad3
        for op in QUAD3_OPS:
            original = quad3.__dict__[op]
            self._patches.append((quad3, op, original))
            setattr(quad3, op, self._counted("exactnum.quad3_ops", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        out = {name: self.counts[name] for name in COUNTERS}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self._self[n] for n in names)
        for metric, name in CALLS.items():
            out[metric] = self._calls[name]
        out["cli.self_s"] = sum(v for n, v in self._self.items() if n.startswith("cli."))
        calls = self.counts["census.predicate_calls"]
        out["census.predicate_hit_ratio"] = (
            self.counts["census.predicate_hits"] / calls if calls else 0.0
        )
        return out

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.write(json.dumps(["item", "id", "parent", "name", "start", "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""Per-layer tracing from outside the library.

The traced run replaces, for its duration, the module-level names through
which numonoid's modules call one another with wrappers that record a span
(layer, parent span, start, end, work count).  A name is wrapped wherever
the same function object is bound in a numonoid module, so a call through
`presentations._enumerate`, `factorizations._enumerate` or the package
namespace lands in the same layer.  A layer whose defining name no longer
exists is an error, so a rename cannot silently drop a layer; every
binding is restored afterwards, so untraced runs see the library as is.

Spans are kept in memory and reduced to per-layer metrics at the end:
self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _length(args, kwargs, result) -> int:
    return len(result)


def _vertices(args, kwargs, result) -> int:
    return len(result.vertices)


def _lift_steps(args, kwargs, result) -> int:
    return args[3] if len(args) > 3 else kwargs["steps"]


def _bucket_vectors(args, kwargs, result) -> int:
    return sum(len(zs) for zs in result.values())


# (layer, module, attribute, work count of one call or None)
LAYERS = (
    ("core.apery", "core", "apery", None),
    ("core.contains", "core", "contains", None),
    ("factorizations.enumerate", "factorizations", "_enumerate", _length),
    ("presentations.atom_union", "presentations", "_atom_union", None),
    ("presentations.require_minimal", "presentations", "_require_minimal", None),
    ("presentations.betti_elements", "presentations", "_betti_impl", _length),
    ("presentations.factorization_graph", "presentations", "factorization_graph", _vertices),
    ("presentations.minimal_presentation", "presentations", "minimal_presentation", None),
    ("presentations.minpres_impl", "presentations", "_minpres_impl", None),
    ("shifted.accelerated", "shifted", "accelerated_minimal_presentation", None),
    ("shifted.lift_presentation", "shifted", "lift_presentation", _lift_steps),
    ("invariants.catenary_of_element", "invariants", "catenary_of_element", None),
    ("invariants.monotone_equal_catenary", "invariants", "monotone_equal_catenary", None),
    ("invariants.tame_degree", "invariants", "tame_degree", None),
    ("invariants.delta_set_of_element", "invariants", "delta_set_of_element", None),
    ("oracle.closure", "oracle", "congruence_closure_check", None),
    ("oracle.buckets", "oracle", "factorization_buckets", _bucket_vectors),
    ("cli.main", "cli", "main", None),
)

INVARIANT_LAYERS = (
    "catenary_of_element",
    "monotone_equal_catenary",
    "tame_degree",
    "delta_set_of_element",
)

# per-layer metric name -> unit; the traced run emits exactly these
PER_LAYER_UNITS = {
    "factorizations.enumerate.calls": "count",
    "factorizations.enumerate.self_ms": "ms",
    "factorizations.enumerate.vectors": "count",
    "presentations.betti_elements.self_ms": "ms",
    "presentations.betti_scan.candidates": "count",
    "presentations.betti_scan.hit_frac": "ratio",
    "presentations.atom_union.calls": "count",
    "presentations.atom_union.self_ms": "ms",
    "presentations.factorization_graph.calls": "count",
    "presentations.factorization_graph.vertices": "count",
    "presentations.minpres_cache.hit_frac": "ratio",
    "shifted.verify_ms": "ms",
    "shifted.base_ms": "ms",
    "shifted.accelerated.self_ms": "ms",
    "shifted.lift_presentation.calls": "count",
    "shifted.lift_presentation.self_ms": "ms",
    "shifted.lift.steps": "count",
    **{f"invariants.{n}.calls": "count" for n in INVARIANT_LAYERS},
    **{f"invariants.{n}.self_ms": "ms" for n in INVARIANT_LAYERS},
    "invariants.factorizations.vectors": "count",
    "oracle.closure.calls": "count",
    "oracle.closure.self_ms": "ms",
    "oracle.buckets.vectors": "count",
    "oracle.buckets.self_ms": "ms",
    "core.apery.calls": "count",
    "core.apery.self_ms": "ms",
    "core.contains.calls": "count",
    "cli.survey.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "count")


class Tracer:
    """Span recorder.  Each span is (layer, parent index, start, end, count);
    parent is -1 for a span opened outside any other span."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, parent, start, end, n)

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def clear(self):
        self.spans.clear()


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextmanager
def traced(tracer: Tracer, package: str = "numonoid"):
    """Wrap every LAYERS binding while the block runs, then restore them."""
    modules = _package_modules(package)
    replaced = []
    try:
        for layer, modname, attr, count in LAYERS:
            mod = sys.modules.get(f"{package}.{modname}")
            if mod is None or not callable(getattr(mod, attr, None)):
                raise LookupError(
                    f"traced layer {layer}: {package}.{modname}.{attr} no longer exists"
                )
            original = getattr(mod, attr)
            wrapper = tracer.wrap(layer, original, count)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        replaced.append((m, name, original))
        yield tracer
    finally:
        for m, name, original in reversed(replaced):
            setattr(m, name, original)


def layer_metrics(spans: list) -> dict[str, float]:
    """Reduce one batch's spans to the PER_LAYER_UNITS metrics (all but
    trace.overhead_frac, which needs an untraced run)."""
    child_time = [0.0] * len(spans)
    for layer, parent, start, end, n in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    work: dict[str, int] = {}
    under: dict[tuple[str, str], float] = {}  # (layer, parent layer) -> ms
    count_under: dict[tuple[str, str], int] = {}
    work_under: dict[tuple[str, str], int] = {}
    for i, (layer, parent, start, end, n) in enumerate(spans):
        dur = (end - start) * 1e3
        calls[layer] = calls.get(layer, 0) + 1
        self_ms[layer] = self_ms.get(layer, 0.0) + dur - child_time[i] * 1e3
        work[layer] = work.get(layer, 0) + n
        key = (layer, spans[parent][0] if parent >= 0 else "")
        under[key] = under.get(key, 0.0) + dur
        count_under[key] = count_under.get(key, 0) + 1
        work_under[key] = work_under.get(key, 0) + n

    def ratio(num, den):
        return num / den if den else 0.0

    enum = "factorizations.enumerate"
    betti = "presentations.betti_elements"
    graph = "presentations.factorization_graph"
    minpres = "presentations.minimal_presentation"
    accel = "shifted.accelerated"
    lift = "shifted.lift_presentation"
    candidates = count_under.get((enum, betti), 0)
    minpres_calls = calls.get(minpres, 0)
    misses = count_under.get(("presentations.minpres_impl", minpres), 0)
    out = {
        "factorizations.enumerate.calls": calls.get(enum, 0),
        "factorizations.enumerate.self_ms": self_ms.get(enum, 0.0),
        "factorizations.enumerate.vectors": work.get(enum, 0),
        "presentations.betti_elements.self_ms": self_ms.get(betti, 0.0),
        "presentations.betti_scan.candidates": candidates,
        "presentations.betti_scan.hit_frac": ratio(work.get(betti, 0), candidates),
        "presentations.atom_union.calls": calls.get("presentations.atom_union", 0),
        "presentations.atom_union.self_ms": self_ms.get("presentations.atom_union", 0.0),
        "presentations.factorization_graph.calls": calls.get(graph, 0),
        "presentations.factorization_graph.vertices": work.get(graph, 0),
        "presentations.minpres_cache.hit_frac": ratio(minpres_calls - misses, minpres_calls),
        "shifted.verify_ms": under.get((graph, accel), 0.0),
        "shifted.base_ms": under.get((minpres, accel), 0.0),
        "shifted.accelerated.self_ms": self_ms.get(accel, 0.0),
        "shifted.lift_presentation.calls": calls.get(lift, 0),
        "shifted.lift_presentation.self_ms": self_ms.get(lift, 0.0),
        "shifted.lift.steps": work.get(lift, 0),
        "invariants.factorizations.vectors": sum(
            n for (layer, parent), n in work_under.items()
            if layer == enum and parent.startswith("invariants.")
        ),
        "oracle.closure.calls": calls.get("oracle.closure", 0),
        "oracle.closure.self_ms": self_ms.get("oracle.closure", 0.0),
        "oracle.buckets.vectors": work.get("oracle.buckets", 0),
        "oracle.buckets.self_ms": self_ms.get("oracle.buckets", 0.0),
        "core.apery.calls": calls.get("core.apery", 0),
        "core.apery.self_ms": self_ms.get("core.apery", 0.0),
        "core.contains.calls": calls.get("core.contains", 0),
        # every CLI call the benchmark makes is a survey
        "cli.survey.self_ms": self_ms.get("cli.main", 0.0),
    }
    for name in INVARIANT_LAYERS:
        out[f"invariants.{name}.calls"] = calls.get(f"invariants.{name}", 0)
        out[f"invariants.{name}.self_ms"] = self_ms.get(f"invariants.{name}", 0.0)
    return out

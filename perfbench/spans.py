"""Span recording, layer wrapping and self-time accounting for the traced run.

A span is one call into a layer of ``polykernel``: its name, layer, group,
start, end, parent span and the benchmark operation it belongs to.  Spans
are kept in memory and written as JSON when the run ends.

Every module of ``src/polykernel`` except ``errors`` and ``__init__`` is a
layer.  The benchmark measures a layer from outside, by replacing its public
functions and methods with wrappers that open and close spans.  Modules
import names directly (``kernel`` imports ``log_moment_table``, ``cli``
imports ``build_space`` and ``write_csv``), so a wrapper replaces the
original at every import site, and methods are patched on their class.

``weights`` is the bottom layer: it calls no other layer, and a single build
calls it some 10^5 times.  Its calls are folded into the span that made
them, as a call count and a total time, instead of one span each.  Calls are
sequential within the traced run, so folding loses no self time.

A layer's self time is the duration of its spans minus the part of each
interval that the span's child spans (and folded calls) cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("weights", "quadrature", "kernel", "localexpansion", "asymptotics",
          "sampling", "reporting", "cli")
LEAF_LAYER = "weights"
BENCH_LAYER = "bench"

# Private methods whose calls the per-layer metrics count.  Later refactors
# may remove them; a missing one is skipped and its counts read 0.
PRIVATE_HOOKS = {
    "GramFactorization": ("_escalated_cholesky",),
    "KernelEvaluator": ("_pair_eval",),
}


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    group: str
    start: float
    end: float = float("nan")
    parent: int = -1
    op: int = -1
    leaf_calls: int = 0
    leaf_s: float = 0.0
    attrs: dict | None = None


class Tracer:
    """In-memory span recorder for one single-threaded traced segment."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self.active = False
        self._open: list[int] = []
        self._in_leaf = False

    def begin(self, name: str, layer: str, group: str = "") -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, layer, group, self.clock(), parent=parent,
                               op=self.op))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def fold(self, seconds: float) -> None:
        if not self._open:
            raise RuntimeError("a leaf call ran outside every open span")
        span = self.spans[self._open[-1]]
        span.leaf_calls += 1
        span.leaf_s += seconds

    def write(self, path: str) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.op, s.leaf_calls,
                 s.leaf_s, s.attrs or {}] for s in self.spans]
        doc = {"fields": ["name", "start", "end", "parent", "op", "leaf_calls",
                          "leaf_s", "attrs"],
               "names": names,
               "layers": {n: list(_classify(n)) for n in names},
               "spans": rows}
        with open(path, "w") as handle:
            json.dump(doc, handle)


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its children and folded calls cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _union_length(children[i], s.start, s.end) - s.leaf_s
            for i, s in enumerate(spans)]


def layer_self_times(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Self time summed by (layer, group); folded calls count for LEAF_LAYER."""
    out = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[(s.layer, s.group)] += own
        out[(LEAF_LAYER, "")] += s.leaf_s
    return dict(out)


# -- wrapping --------------------------------------------------------------


def _classify(name: str) -> tuple[str, str]:
    """(layer, group) of a span name "<layer>.<qualname>"."""
    layer, _, qualname = name.partition(".")
    if layer != "kernel":
        return layer, ""
    if qualname.endswith("_escalated_cholesky"):
        return layer, "escalation"
    if qualname.startswith(("GramFactorization.", "build_space")) \
            or qualname == "KernelEvaluator.__init__":
        return layer, "factor"
    return layer, "eval"


def _pair_attrs(args, kwargs, result):
    self, z, w = args[:3]
    spec = self.spec
    return {"points": int(np.broadcast(np.asarray(z), np.asarray(w)).size),
            "blocks": int(spec.n + spec.q - 1)}


# Values read from a call's arguments or result, stored on its span.
ATTRS = {
    "kernel.GramFactorization.__init__": lambda a, k, r: {
        "max_cond": max(getattr(a[0], "condition_report", {}).values(),
                        default=0.0)},
    "kernel.KernelEvaluator._pair_eval": _pair_attrs,
    "kernel.KernelEvaluator.total_intensity": lambda a, k, r: {
        "defect": abs(float(r) - a[0].spec.dim)},
    "kernel.KernelEvaluator.reproducing_residual": lambda a, k, r: {
        "residual": float(r)},
    "sampling.sample_configuration": lambda a, k, r: {
        "proposals": int(r.proposals_used), "points": int(r.points.size)},
    "sampling.empirical_intensity": lambda a, k, r: {
        "max_standardized": float(r.max_standardized)},
    "reporting.atomic_write_text": lambda a, k, r: {
        "bytes": len((a[1] if len(a) > 1 else k["text"]).encode())},
}


def _wrap(tracer: Tracer, fn, name: str):
    layer, group = _classify(name)
    if layer == LEAF_LAYER:
        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            if not tracer.active or tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_leaf = False
                tracer.fold(tracer.clock() - t0)
        return leaf

    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.begin(name, layer, group)
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                try:
                    tracer.spans[index].attrs = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    # a changed signature loses the count, never the call
                    tracer.spans[index].attrs = {"error": repr(exc)}
            return result
        finally:
            tracer.end(index)
    return spanned


def _targets(module):
    """(owner, attribute, function, is_static) for each callable to wrap."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not name.startswith("_"):
            yield module, name, obj, False
        if inspect.isclass(obj) and obj.__module__ == module.__name__ \
                and not name.startswith("_"):
            private = PRIVATE_HOOKS.get(name, ())
            for attr, value in vars(obj).items():
                wanted = (not attr.startswith("_") or attr in private
                          or (attr == "__init__" and not dataclasses.is_dataclass(obj)))
                if not wanted:
                    continue
                if isinstance(value, staticmethod):
                    yield obj, attr, value.__func__, True
                elif inspect.isfunction(value):
                    yield obj, attr, value, False


def install(tracer: Tracer, package: str = "polykernel"):
    """Wrap every layer's public callables; return a function that undoes it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    wrapped = {}
    undo = []
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for owner, attr, fn, static in _targets(module):
            qualname = f"{owner.__name__}.{attr}" if inspect.isclass(owner) else attr
            wrapper = _wrap(tracer, fn, f"{layer}.{qualname}")
            if inspect.isclass(owner):
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            wrapped[id(fn)] = (fn, wrapper)
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


# -- per-layer metrics -----------------------------------------------------


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counts and self times of every layer, from the spans of one segment."""
    own = layer_self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def count(name):
        return len(by_name[name])

    def inclusive(name):
        return sum(spans[i].end - spans[i].start for i in by_name[name])

    def attr_values(name, key):
        return [spans[i].attrs[key] for i in by_name[name]
                if spans[i].attrs and key in spans[i].attrs]

    def layer_self(layer):
        return sum(v for (lay, _), v in own.items() if lay == layer)

    moments = count("quadrature.radial_log_moment")
    pair_points = attr_values("kernel.KernelEvaluator._pair_eval", "points")
    pair_blocks = attr_values("kernel.KernelEvaluator._pair_eval", "blocks")
    points = sum(pair_points)
    point_blocks = sum(p * b for p, b in zip(pair_points, pair_blocks))
    eval_self = own.get(("kernel", "eval"), 0.0)
    eval_calls = sum(1 for s in spans
                     if _classify(s.name) == ("kernel", "eval")
                     and not s.name.endswith("._pair_eval")
                     and (s.parent < 0 or _classify(spans[s.parent].name)
                          != ("kernel", "eval")))
    configs = count("sampling.sample_configuration")
    proposals = sum(attr_values("sampling.sample_configuration", "proposals"))
    drawn = sum(attr_values("sampling.sample_configuration", "points"))
    return {
        "weights.self_s": layer_self("weights"),
        "quadrature.moments": moments,
        "quadrature.self_s": layer_self("quadrature"),
        "quadrature.ms_per_moment":
            1e3 * inclusive("quadrature.radial_log_moment") / moments if moments else 0.0,
        "kernel.builds": count("kernel.GramFactorization.__init__"),
        "kernel.factor_self_s": own.get(("kernel", "factor"), 0.0),
        "kernel.escalations": count("kernel.GramFactorization._escalated_cholesky"),
        "kernel.escalation_s": own.get(("kernel", "escalation"), 0.0),
        "kernel.max_block_cond": max(
            attr_values("kernel.GramFactorization.__init__", "max_cond"), default=0.0),
        "kernel.eval_calls": eval_calls,
        "kernel.eval_points": points,
        "kernel.eval_self_s": eval_self,
        "kernel.ns_per_point_block": 1e9 * eval_self / point_blocks if point_blocks else 0.0,
        "kernel.trace_defect": max(
            attr_values("kernel.KernelEvaluator.total_intensity", "defect"), default=0.0),
        "kernel.reproducing_residual": max(
            attr_values("kernel.KernelEvaluator.reproducing_residual", "residual"),
            default=0.0),
        "localexpansion.self_s": layer_self("localexpansion"),
        "asymptotics.self_s": layer_self("asymptotics"),
        "sampling.self_s": layer_self("sampling"),
        "sampling.configs": configs,
        "sampling.proposals_per_config": proposals / configs if configs else 0.0,
        "sampling.accept_ratio": drawn / proposals if proposals else 0.0,
        "sampling.s_per_config":
            inclusive("sampling.sample_configuration") / configs if configs else 0.0,
        "sampling.validate_s": inclusive("sampling.empirical_intensity"),
        "sampling.max_standardized": max(
            attr_values("sampling.empirical_intensity", "max_standardized"), default=0.0),
        "reporting.bytes": sum(attr_values("reporting.atomic_write_text", "bytes")),
        "reporting.self_s": layer_self("reporting"),
        "cli.self_s": layer_self("cli"),
        "bench.self_s": layer_self(BENCH_LAYER),
    }

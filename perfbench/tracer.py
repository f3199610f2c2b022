"""Spans around the public functions of each tridecomp module, from outside.

``Tracer.install`` replaces every public module-level function of the six
layers, and the methods in ``METHODS``, by a wrapper that records a span
(name, start, end, parent, value).  The wrapper is bound at every place a
caller looks the function up: the defining module, each module that
imported the name, the package root, and the CLI's family table.  Spans are
kept in memory; ``per_layer`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Tuple

LAYERS = ("graph_core", "decomposer", "augment", "families", "analysis", "cli")

METHODS = {
    "graph_core": (("Multigraph", "from_edges"), ("Multigraph", "from_json_dict")),
    "decomposer": (("CoverInstance", "__init__"), ("CoverInstance", "solve")),
}

# Value constructors that run once per edge or triangle read; a span each
# would make the tracing cost larger than the work it measures.
UNTRACED = {"graph_core.edge", "graph_core.triangle"}

# What a span keeps of its function's result.
MEASURES: Dict[str, Callable] = {
    "decomposer.enumerate_triangles": len,
    "augment.enumerate_mops": len,
    "decomposer.CoverInstance.solve": lambda result: int(result is not None),
}

FAMILY_CONSTRUCTORS = tuple(
    f"families.{name}"
    for name in ("mop_construct", "fan", "intermediate", "kop_construct", "hmp_construct",
                 "sc2_tree_construct", "sc2_tree_seed", "sc3_construct", "sf_fixture")
)
CLASS_SWEEPS = ("augment.epsilon_class_exact", "augment.xi_class_exact")

NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[VALUE] = measure(result)
            return result

        return wrapper

    def _set(self, target, attr: str, value, item: bool = False) -> None:
        # vars() keeps a classmethod as the descriptor, not the bound method.
        old = target[attr] if item else vars(target)[attr]
        self._restore.append((target, attr, old, item))
        if item:
            target[attr] = value
        else:
            setattr(target, attr, value)

    def install(self, package: str = "tridecomp") -> None:
        root = importlib.import_module(package)
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrapped: Dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapped[id(obj)] = self._wrap(name, obj)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(f"{layer}.{cls_name}.{meth}", raw.__func__))
                else:
                    new = self._wrap(f"{layer}.{cls_name}.{meth}", raw)
                self._set(cls, meth, new)
        for mod in (root, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    # Tables of (function, ...) tuples, such as cli.FAMILY_SPECS.
                    for key, val in list(obj.items()):
                        if isinstance(val, tuple) and val and id(val[0]) in wrapped:
                            self._set(obj, key, (wrapped[id(val[0])],) + val[1:], item=True)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, old, item = self._restore.pop()
            if item:
                target[attr] = old
            else:
                setattr(target, attr, old)


def per_layer(tracer: Tracer, traced_s: float, untraced_s: float,
              stdout_bytes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a traced pass.

    ``X.s`` is the time inside spans of X that are not nested in another span
    of X; ``X.self_s`` subtracts the time covered by child spans.
    """
    spans = tracer.spans
    span_name = [tracer.names[s[NAME]] for s in spans]
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]

    def select(group) -> List[int]:
        return [i for i, n in enumerate(span_name) if n in group]

    def outer_s(group) -> float:
        total = 0.0
        for i in select(group):
            p = spans[i][PARENT]
            while p >= 0 and span_name[p] not in group:
                p = spans[p][PARENT]
            if p < 0:
                total += spans[i][END] - spans[i][START]
        return total

    def self_s(pred) -> float:
        return sum((s[END] - s[START] - child[i] for i, s in enumerate(spans)
                    if pred(span_name[i])), 0.0)

    def calls(group) -> int:
        return len(select(group))

    def value_sum(group) -> int:
        return sum(spans[i][VALUE] or 0 for i in select(group))

    solve = ("decomposer.CoverInstance.solve",)
    solve_calls = calls(solve)
    out: Dict[str, Tuple[float, str]] = {
        "augment.epsilon_exact.self_s": (self_s(lambda n: n == "augment.epsilon_exact"), "s"),
        "augment.lower_bound.s": (outer_s(("augment.lower_bound",)), "s"),
        "augment.class_sweep.self_s": (self_s(lambda n: n in CLASS_SWEEPS), "s"),
        "augment.enumerate_mops.s": (outer_s(("augment.enumerate_mops",)), "s"),
        "augment.mops.count": (value_sum(("augment.enumerate_mops",)), "count"),
        "decomposer.solve.calls": (solve_calls, "count"),
        "decomposer.solve.s": (outer_s(solve), "s"),
        "decomposer.solve.hit_ratio": (value_sum(solve) / solve_calls if solve_calls else 0.0,
                                       "ratio"),
        "decomposer.cover_build.s": (outer_s(("decomposer.CoverInstance.__init__",)), "s"),
        "decomposer.cover_build.calls": (calls(("decomposer.CoverInstance.__init__",)), "count"),
        "decomposer.enumerate_triangles.s": (outer_s(("decomposer.enumerate_triangles",)), "s"),
        "decomposer.triangles.count": (value_sum(("decomposer.enumerate_triangles",)), "count"),
        "decomposer.fast_reject.s": (outer_s(("decomposer.fast_reject",)), "s"),
        "decomposer.coverage_error.s": (outer_s(("decomposer.coverage_error",)), "s"),
        "graph_core.from_edges.s": (outer_s(("graph_core.Multigraph.from_edges",)), "s"),
        "graph_core.from_edges.calls": (calls(("graph_core.Multigraph.from_edges",)), "count"),
        "graph_core.from_json.s": (outer_s(("graph_core.Multigraph.from_json_dict",)), "s"),
        "graph_core.from_json.calls": (calls(("graph_core.Multigraph.from_json_dict",)), "count"),
        "families.construct.s": (outer_s(FAMILY_CONSTRUCTORS), "s"),
        "families.validate_construction.s": (outer_s(("families.validate_construction",)), "s"),
        "analysis.find_hamiltonian_cycle.s": (outer_s(("analysis.find_hamiltonian_cycle",)), "s"),
        "analysis.is_maximal_outerplanar.s": (outer_s(("analysis.is_maximal_outerplanar",)), "s"),
        "analysis.trace_faces.s": (outer_s(("analysis.trace_faces",)), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s(lambda n, p=layer + ".": n.startswith(p)), "s")
    out["trace.wall_s"] = (traced_s, "s")
    out["trace.spans.count"] = (len(spans), "count")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out

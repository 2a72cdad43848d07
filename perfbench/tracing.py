"""Span tracing of factorkit's layers from outside the package.

`install` wraps the public functions of each traced module and rebinds every
name under which a factorkit module holds the original, because the modules
import each other's functions with `from ... import` (the solver calls
`factorkit.solver.maximum_matching`, not `factorkit.matching.maximum_matching`).
`Graph` construction is traced by wrapping `Graph.__post_init__`.

A span is recorded only while an operation span is open, so checks and
oracles that call the same functions leave no spans. Spans stay in memory as
[name, start, end, parent index, operation id] and are written out by
`write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Spans with the same name form one layer.
TRACED = (
    ("factorkit.matching", "maximum_matching", "matching"),
    ("factorkit.solver", "h_factor_decide", "solver"),
    ("factorkit.solver", "f_factor_decide", "solver"),
    ("factorkit.solver", "decompose_two_factors", "solver"),
    ("factorkit.solver", "even_k_factor", "solver"),
    ("factorkit.graph", "induced_subgraph", "graph.induced"),
    ("factorkit.graph", "articulation_points", "graph.articulation"),
    ("factorkit.graph", "connected_components", "graph.components"),
    ("factorkit.graph", "edge_connectivity", "graph.edge_connectivity"),
    ("factorkit.io", "decode_graph6", "io.decode"),
    ("factorkit.io", "encode_graph6", "io.encode"),
    ("factorkit.cli", "run", "cli"),
    ("factorkit.constructions", "near_complete_block", "constructions"),
    ("factorkit.constructions", "build_g1", "constructions"),
    ("factorkit.constructions", "build_g2", "constructions"),
    ("factorkit.theorems", "hub_parity_analysis", "theorems.certificate"),
    ("factorkit.theorems", "check_certificate", "theorems.certificate"),
    ("factorkit.theorems", "gallai_check", "theorems.gallai"),
)

OP_SPAN = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        index = self.open(OP_SPAN)
        try:
            return fn()
        finally:
            self.close(index)


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.counts[name + ".calls"] += 1
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return traced


def _count_matching(counts, args, kwargs, mate) -> None:
    counts["matching.vertices"] += args[0]
    counts["matching.arcs"] += sum(len(a) for a in args[1])
    counts["matching.perfect"] += all(u != -1 for u in mate)


def _count_decision(counts, args, kwargs, result) -> None:
    nodes = getattr(result, "nodes_explored", None)
    if nodes is not None:
        counts["solver.decide_calls"] += 1
        counts["solver.nodes"] += nodes


COUNTERS = {"matching": _count_matching, "solver": _count_decision}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever a factorkit module binds it."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "factorkit" or name.startswith("factorkit."))
    ]
    for module_name, attr, span in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap(tracer, span, original, COUNTERS.get(span))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    graph_cls = sys.modules["factorkit.graph"].Graph
    graph_cls.__post_init__ = _wrap(tracer, "graph.construct", graph_cls.__post_init__, None)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the duration of direct children."""
    own = defaultdict(float)
    for name, start, end, parent, _ in spans:
        duration = end - start
        own[name] += duration
        if parent >= 0:
            own[spans[parent][0]] -= duration
    return own


def outermost_time(spans: list[list], name: str) -> float:
    """Summed duration of `name` spans not nested in another `name` span."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def write_spans(path: str, spans: list[list]) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write('{"fields": ["name", "start", "end", "parent", "op"]}\n')
        for span in spans:
            f.write(json.dumps(span) + "\n")

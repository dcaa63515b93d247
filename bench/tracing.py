"""Spans around aggterm's layer boundaries, and the per-layer metrics.

The tracer wraps library functions at the attribute where their callers
look them up (aggterm.harness.sample_graph, FunctionRegistry.call, ...),
so nothing in the package changes and, while the wrappers are removed,
nothing costs anything. A span is (id, name, start, end, parent, op,
attrs); spans stay in memory until the run writes them out as JSONL.

The parent of a span is the span open in the same context. run_sweep's
thread pool is swapped for one that copies the caller's context into each
task, so items running on two workers still nest under their sweep. Their
intervals then overlap, which is why self time subtracts the union of the
child intervals rather than their sum.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("bench_span",
                                                          default=None)

SETUP_OP = "setup"


def op_id(pass_index: int, name: str) -> str:
    """The op field of a span: pass index and operation name."""
    return f"p{pass_index}:{name}"


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Tracer:
    """Records spans while installed; op names the operation in flight."""

    def __init__(self):
        self.spans: list = []
        self.op: Optional[str] = None
        self._ids = itertools.count()
        self._saved: list = []

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs: Optional[Callable] = None):
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        extra: dict = {}
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, kwargs, out)
            return out
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, name, start, end, parent, self.op, extra))

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, attrs) target."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, attrs))
        harness = importlib.import_module("aggterm.harness")
        self._saved.append((harness, "ThreadPoolExecutor",
                            harness.ThreadPoolExecutor))
        harness.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     **attrs}) + "\n")


# ---------------------------------------------------------------------------
# what gets wrapped


def _edges(args, kwargs, graph):
    return {"edges": graph.num_edges}


def _nodes(args, kwargs, out):
    return {"n": args[0].n}


def _items(args, kwargs, report):
    return {"items": len(report.sizes) * report.samples}


def _rows(args, kwargs, out):
    return {"rows": len(out)}


def _truncated(args, kwargs, cv):
    return {"truncated_mass": cv.truncated_mass or 0.0}


def _census(args, kwargs, table):
    overflow = int(round(table.truncated_mass * table.sample_size))
    return {"roots": table.sample_size, "overflow": overflow,
            "classes": len(table.proportions)}


def layer_targets() -> list:
    """(owner, attribute, span name, attrs) for every traced boundary."""
    mod = importlib.import_module
    harness, evaluate = mod("aggterm.harness"), mod("aggterm.evaluate")
    arch, census = mod("aggterm.architectures"), mod("aggterm.census")
    dense, sparse = mod("aggterm.dense_limit"), mod("aggterm.sparse_limit")
    registry, parser = mod("aggterm.registry"), mod("aggterm.parser")
    workloads = mod("workloads")
    return [
        (harness, "run_sweep", "harness", _items),
        (harness, "sample_graph", "graphs.sample", _edges),
        (harness, "attach_features", "graphs.features", None),
        (harness, "eval_closed", "evaluate", None),
        (evaluate, "eval_closed", "evaluate", None),
        (evaluate, "rw_encoding_all", "rw", _nodes),
        (workloads, "rw_single", "rw.single", None),
        (registry.FunctionRegistry, "call", "registry", None),
        (parser, "parse_term", "parser.parse", None),
        (arch, "compile_architecture", "architectures.compile", None),
        (arch, "init_weights", "architectures.compile", None),
        (arch.CompiledModel, "prepare", "architectures.prepare", None),
        (dense, "dense_controller", "dense_limit", None),
        (dense, "draw_features", "dense_limit.draw", _rows),
        (sparse, "sparse_limit", "sparse_limit", _truncated),
        (sparse, "neighborhood_census", "census", _census),
        (census, "neighborhood_census", "census", _census),
        (census, "sample_graph", "graphs.sample", _edges),
        (census, "rooted_neighborhood", "graphs.bfs", None),
        (census, "canonical_code", "canonical.code", None),
        (census, "decode_code", "canonical.decode", None),
    ]


# ---------------------------------------------------------------------------
# aggregation


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans, within: Optional[str] = None) -> dict:
    """Per span name: s, self_s, calls, and each attribute summed.

    s counts only spans with no ancestor of the same name, so recursion
    is not counted twice. self_s is each span's duration minus the part
    its children cover. With `within`, only spans that have an ancestor
    named `within` are counted.
    """
    by_id = {s[0]: s for s in spans}
    kids = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            kids[parent].append((start, end))

    def ancestor_names(parent):
        while parent is not None and parent in by_id:
            yield by_id[parent][1]
            parent = by_id[parent][4]

    out: dict = {}
    for sid, name, start, end, parent, _, attrs in spans:
        above = set(ancestor_names(parent))
        if within is not None and within not in above:
            continue
        st = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        st["calls"] += 1
        if name not in above:
            st["s"] += end - start
        st["self_s"] += (end - start) - covered(start, end, kids[sid])
        for key, value in attrs.items():
            if key == "truncated_mass":
                st[key] = max(st.get(key, 0.0), value)
            else:
                st[key] = st.get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rw_growth(spans, op: Optional[str]) -> float:
    """Per-node rw cost at the ladder's largest size over the next one."""
    cost: dict = defaultdict(lambda: [0.0, 0])
    for _, name, start, end, _, span_op, attrs in spans:
        if name == "rw" and op is not None and span_op.endswith(":" + op):
            cost[attrs["n"]][0] += end - start
            cost[attrs["n"]][1] += attrs["n"]
    if len(cost) < 2:
        return 0.0
    big, small = sorted(cost)[-1], sorted(cost)[-2]
    return _ratio(cost[big][0] / cost[big][1], cost[small][0] / cost[small][1])


# (metric, unit): every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = (
    ("graphs.sample_s", "s"), ("graphs.edges_per_s", "1/s"),
    ("graphs.features_s", "s"), ("graphs.bfs_s", "s"),
    ("evaluate.s", "s"), ("evaluate.self_s", "s"), ("evaluate.calls", "count"),
    ("registry.s", "s"), ("registry.calls", "count"),
    ("rw.s", "s"), ("rw.nodes", "count"), ("rw.s_per_node", "s"),
    ("rw.growth", "ratio"), ("rw.single_s", "s"),
    ("rw.single_calls", "count"),
    ("architectures.compile_s", "s"), ("parser.parse_s", "s"),
    ("architectures.prepare_s", "s"),
    ("harness.sweep_s", "s"), ("harness.self_s", "s"),
    ("harness.items", "count"),
    ("dense_limit.s", "s"), ("dense_limit.self_s", "s"),
    ("dense_limit.draw_s", "s"), ("dense_limit.rows_drawn", "count"),
    ("sparse_limit.s", "s"), ("sparse_limit.self_s", "s"),
    ("sparse_limit.truncated_mass", "fraction"),
    ("census.s", "s"), ("census.self_s", "s"), ("census.sample_s", "s"),
    ("census.roots", "count"), ("census.classes", "count"),
    ("census.overflow", "count"), ("census.useful_ratio", "ratio"),
    ("canonical.code_s", "s"), ("canonical.calls", "count"),
    ("canonical.decode_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans, passes: int, setups: int, growth_op: Optional[str],
                  overhead_s: float) -> dict:
    """Per-layer values per traced pass (setup layers: per setup).

    A layer that does not run on the workload reads 0.
    """
    setup = [s for s in spans if s[5] == SETUP_OP]
    work = [s for s in spans if s[5] != SETUP_OP]
    st = summarize(work)
    in_census = summarize(work, within="census")
    at_setup = summarize(setup)

    def get(table, name, key="s"):
        return table.get(name, {}).get(key, 0.0)

    def per(value):
        return value / passes

    roots = get(st, "census", "roots")
    overflow = get(st, "census", "overflow")
    values = {
        "graphs.sample_s": per(get(st, "graphs.sample")),
        "graphs.edges_per_s": _ratio(get(st, "graphs.sample", "edges"),
                                     get(st, "graphs.sample")),
        "graphs.features_s": per(get(st, "graphs.features")),
        "graphs.bfs_s": per(get(st, "graphs.bfs")),
        "evaluate.s": per(get(st, "evaluate")),
        "evaluate.self_s": per(get(st, "evaluate", "self_s")),
        "evaluate.calls": per(get(st, "evaluate", "calls")),
        "registry.s": per(get(st, "registry")),
        "registry.calls": per(get(st, "registry", "calls")),
        "rw.s": per(get(st, "rw")),
        "rw.nodes": per(get(st, "rw", "n")),
        "rw.s_per_node": _ratio(get(st, "rw"), get(st, "rw", "n")),
        "rw.growth": rw_growth(work, growth_op),
        "rw.single_s": per(get(st, "rw.single")),
        "rw.single_calls": per(get(st, "rw.single", "calls")),
        "architectures.compile_s": get(at_setup, "architectures.compile")
        / setups,
        "parser.parse_s": get(at_setup, "parser.parse") / setups,
        "architectures.prepare_s": per(get(st, "architectures.prepare")),
        "harness.sweep_s": per(get(st, "harness")),
        "harness.self_s": per(get(st, "harness", "self_s")),
        "harness.items": per(get(st, "harness", "items")),
        "dense_limit.s": per(get(st, "dense_limit")),
        "dense_limit.self_s": per(get(st, "dense_limit", "self_s")),
        "dense_limit.draw_s": per(get(st, "dense_limit.draw")),
        "dense_limit.rows_drawn": per(get(st, "dense_limit.draw", "rows")),
        "sparse_limit.s": per(get(st, "sparse_limit")),
        "sparse_limit.self_s": per(get(st, "sparse_limit", "self_s")),
        "sparse_limit.truncated_mass": get(st, "sparse_limit",
                                           "truncated_mass"),
        "census.s": per(get(st, "census")),
        "census.self_s": per(get(st, "census", "self_s")),
        "census.sample_s": per(get(in_census, "graphs.sample")),
        "census.roots": per(roots),
        "census.classes": per(get(st, "census", "classes")),
        "census.overflow": per(overflow),
        "census.useful_ratio": _ratio(roots - overflow, roots),
        "canonical.code_s": per(get(st, "canonical.code")),
        "canonical.calls": per(get(st, "canonical.code", "calls")),
        "canonical.decode_s": per(get(st, "canonical.decode")),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in LAYER_METRICS}

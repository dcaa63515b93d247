"""Evaluation of aggregation terms over featured graphs.

One engine serves all three entry points (closed terms, nodewise maps,
single assignments), so the same term on the same graph always produces
bit-identical numbers regardless of how it is invoked.

Design notes:

* Subterms with no free variables are computed once and cached by a
  structural key. Subterms with exactly one free variable are computed for
  all n nodes at once and cached as an (n, d) matrix; evaluation at
  specific nodes is then a row gather. Only subterms whose weights depend
  on two or more variables fall back to explicit expansion.
* Neighborhood aggregation expands (anchor, neighbor) pairs into flat
  arrays and reduces with segment sums, chunked so the expansion never
  exceeds a few million rows at a time.
* Every weighted mean, here and in both limit engines, goes through
  wmean_reduce, which owns the exp shift, the denominator check and the
  empty-neighborhood rule.
"""

from __future__ import annotations

import numpy as np

from . import terms as T
from .errors import ConfigError, EvaluationError
from .registry import FunctionRegistry, default_registry, fit_width
from .rw import rw_encoding_all
from .terms import free_vars, validate_term

_CHUNK_ROWS = 1 << 21


def _segment_reduce(ufunc: np.ufunc, data: np.ndarray,
                    seg: np.ndarray) -> np.ndarray:
    """Reduce rows of data with ufunc over contiguous segments seg[k]:seg[k+1].

    ufunc is np.add (sums) or np.maximum (rowwise maxima). Empty segments
    produce zero rows. seg must be nondecreasing with seg[0] == 0 and
    seg[-1] == len(data).
    """
    nseg = seg.shape[0] - 1
    out = np.zeros((nseg,) + data.shape[1:])
    total = data.shape[0]
    if total == 0 or nseg == 0:
        return out
    starts = seg[:-1]
    # reduceat cannot take a start index == len(data); segments from the
    # first such start onward are all empty, so just drop them.
    cut = int(np.searchsorted(starts, total, side="left"))
    if cut:
        head = ufunc.reduceat(data, starts[:cut], axis=0)
        head[seg[1:cut + 1] == starts[:cut]] = 0.0
        out[:cut] = head
    return out


def wmean_reduce(vals: np.ndarray, eta: np.ndarray | None, weight_map: str,
                 registry: FunctionRegistry, seg: np.ndarray | None,
                 mass: np.ndarray | None = None) -> np.ndarray:
    """Weighted means of the rows of vals, over segments or the leading axis.

    With seg, vals and eta are (rows, d), segment k covers rows
    seg[k]:seg[k+1], and the result is (len(seg) - 1, d). With seg=None
    they are (rows, ..., d), one mean runs over the leading axis for every
    trailing index with a plain axis sum, and the result drops that axis.
    Row weights are weight_map(eta), times mass[row] when a mass is given,
    so a mixture can weight each row by its share. The weight map "one"
    never reads eta, which may then be None.

    exp weights are stabilized by subtracting the per-mean maximum of eta
    before exponentiating. Weighted means are invariant under this shift,
    and it keeps denominators in a sane floating range. A denominator that
    is zero or not finite (a weight map that underflows to zero across a
    whole segment) raises instead of dividing, as does a mean that is not
    finite. An empty segment, or an empty leading axis, yields zeros by
    definition.
    """
    if seg is None and vals.shape[0] == 0:
        return np.zeros(vals.shape[1:])
    counts = None if seg is None else np.diff(seg)
    # the repeated segment maxima are a (rows, d) temporary: leave them
    # unnamed so they are freed before exp allocates its result
    if weight_map == "one":
        w = None
    elif weight_map != "exp":
        flat = eta.reshape(-1, eta.shape[-1])
        w = registry.call(weight_map, [flat]).reshape(eta.shape)
    elif seg is None:
        w = np.exp(eta - eta.max(axis=0, keepdims=True))
    else:
        w = np.exp(eta - np.repeat(_segment_reduce(np.maximum, eta, seg),
                                   counts, axis=0))
    if mass is not None:
        mass = mass.reshape((-1,) + (1,) * (vals.ndim - 1))
        w = mass if w is None else w * mass
    if seg is None:
        num = vals.sum(axis=0) if w is None else (vals * w).sum(axis=0)
        den = vals.shape[0] if w is None else w.sum(axis=0)
    else:
        nonempty = counts > 0
        if w is None:
            num, den = _segment_reduce(np.add, vals, seg), counts[:, None]
        else:
            num = _segment_reduce(np.add, vals * w, seg)
            den = _segment_reduce(np.add, w, seg)
        num, den = num[nonempty], den[nonempty]
    if not (np.all(den > 0) and np.all(np.isfinite(den))):
        raise EvaluationError(
            f"weight map {weight_map!r} produced a zero or non-finite "
            f"denominator")
    res = num / den
    if not np.all(np.isfinite(res)):
        raise EvaluationError(
            f"weighted mean under weight map {weight_map!r} is not finite")
    if seg is None:
        return res
    out = np.zeros((counts.shape[0], vals.shape[1]))
    out[nonempty] = res
    return out


class Evaluator:
    """Caching evaluator bound to one featured graph.

    Reuse one instance when evaluating several related terms on the same
    graph; shared subterms are computed once. The arrays returned by
    nodewise() are cached internally and marked read-only.
    """

    def __init__(self, graph, registry: FunctionRegistry | None = None):
        if graph.n < 1:
            raise ConfigError("cannot evaluate on an empty graph")
        if graph.d < 1:
            raise ConfigError("graph has no node features attached")
        self.graph = graph
        self.registry = registry if registry is not None else default_registry()
        self.d = graph.d
        self._feat = np.asarray(graph.features, dtype=np.float64)
        self._deg = np.diff(graph.indptr)
        self._closed_cache: dict[str, np.ndarray] = {}
        self._node_cache: dict[str, np.ndarray] = {}
        self._skel: dict[tuple[int, str | None], str] = {}
        self._pins: list = []
        self._rw_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # public entry points

    def closed(self, term: T.Term) -> np.ndarray:
        validate_term(term, self.registry, self.d)
        if free_vars(term):
            raise EvaluationError(
                f"term has free variables {free_vars(term)}; expected a closed term")
        return self._closed(term, ())

    def nodewise(self, term: T.Term) -> np.ndarray:
        validate_term(term, self.registry, self.d)
        fv = free_vars(term)
        if len(fv) != 1:
            raise EvaluationError(
                f"nodewise evaluation needs exactly one free variable, got {fv}")
        return self._nodewise_rows(term, fv[0], ())

    def at(self, term: T.Term, assignment: dict[str, int] | None = None) -> np.ndarray:
        validate_term(term, self.registry, self.d)
        assignment = assignment or {}
        fv = free_vars(term)
        missing = [v for v in fv if v not in assignment]
        if missing:
            raise EvaluationError(f"assignment is missing variables {missing}")
        for v in fv:
            node = assignment[v]
            if not (0 <= int(node) < self.graph.n):
                raise EvaluationError(f"assignment {v}={node} is out of range")
        frame = {v: np.array([int(assignment[v])]) for v in fv}
        return self._value_at(term, frame, 1, ())[0].copy()

    # ------------------------------------------------------------------
    # caching layers

    def _skeleton(self, term: T.Term, var: str | None) -> str:
        key = (id(term), var)
        hit = self._skel.get(key)
        if hit is None:
            self._pins.append(term)
            env = {} if var is None else {var: "§"}
            hit = _skel_string(term, env, 0)
            self._skel[key] = hit
        return hit

    def _closed(self, term: T.Term, path: tuple) -> np.ndarray:
        key = self._skeleton(term, None)
        val = self._closed_cache.get(key)
        if val is None:
            val = np.ascontiguousarray(self._structural(term, {}, 1, path)[0])
            val.flags.writeable = False
            self._closed_cache[key] = val
        return val

    def _nodewise_rows(self, term: T.Term, var: str, path: tuple) -> np.ndarray:
        key = self._skeleton(term, var)
        rows = self._node_cache.get(key)
        if rows is None:
            frame = {var: np.arange(self.graph.n)}
            rows = np.ascontiguousarray(self._structural(term, frame, self.graph.n, path))
            rows.flags.writeable = False
            self._node_cache[key] = rows
        return rows

    def _value_at(self, term: T.Term, frame: dict, m: int, path: tuple) -> np.ndarray:
        fv = free_vars(term)
        if not fv:
            return np.broadcast_to(self._closed(term, path), (m, self.d))
        if len(fv) == 1:
            return self._nodewise_rows(term, fv[0], path)[frame[fv[0]]]
        return self._structural(term, frame, m, path)

    # ------------------------------------------------------------------
    # structural evaluation

    def _structural(self, term: T.Term, frame: dict, m: int, path: tuple) -> np.ndarray:
        if isinstance(term, T.Const):
            return np.broadcast_to(np.asarray(term.value, dtype=np.float64), (m, self.d))
        if isinstance(term, T.Feature):
            return self._feat[frame[term.var]]
        if isinstance(term, T.Rw):
            return self._rw_matrix(term.kmax)[frame[term.var]]
        if isinstance(term, T.Apply):
            sub = path + (term.fn,)
            if not term.args:
                val = np.asarray(self.registry.call(term.fn, []), dtype=np.float64)
                if val.shape != (self.d,):
                    raise EvaluationError(
                        f"{term.fn} returned shape {val.shape}, expected ({self.d},)")
                out = np.broadcast_to(val, (m, self.d))
            else:
                args = [self._value_at(a, frame, m, sub) for a in term.args]
                out = self.registry.call(term.fn, args)
            self._check_finite(out, sub)
            return out
        if isinstance(term, T.LocalWMean):
            return self._local(term, frame, m, path, gcn=False)
        if isinstance(term, T.GcnAgg):
            return self._local(term, frame, m, path, gcn=True)
        if isinstance(term, T.GlobalWMean):
            return self._global(term, frame, m, path)
        raise TypeError(f"not a term: {term!r}")

    def _local(self, term, frame: dict, m: int, path: tuple, gcn: bool) -> np.ndarray:
        if gcn:
            sub = path + (f"gcn[{term.bound} in N({term.anchor})]",)
        else:
            sub = path + (f"wmean[{term.bound} in N({term.anchor})]",)
        anchors = frame[term.anchor]
        counts = self._deg[anchors]
        cum = np.concatenate([[0], np.cumsum(counts)])
        out = np.empty((m, self.d))
        start = 0
        while start < m:
            end = int(np.searchsorted(cum, cum[start] + _CHUNK_ROWS, side="right")) - 1
            end = min(max(end, start + 1), m)
            self._local_block(term, frame, anchors, counts, cum, start, end,
                              out, sub, gcn)
            start = end
        self._check_finite(out, sub)
        return out

    def _local_block(self, term, frame, anchors, counts, cum, start, end,
                     out, sub, gcn) -> None:
        g = self.graph
        cnt = counts[start:end]
        seg = cum[start:end + 1] - cum[start]
        total = int(seg[-1])
        rep = np.repeat(np.arange(end - start), cnt)
        offsets = np.arange(total) - np.repeat(seg[:-1], cnt)
        nbrs = g.indices[g.indptr[anchors[start:end]][rep] + offsets]
        child = {v: arr[start:end][rep] for v, arr in frame.items()}
        child[term.bound] = nbrs
        if not gcn:
            out[start:end] = self._wmean(term, child, total, seg, sub)
            return
        vals = self._value_at(term.value, child, total, sub)
        scale = 1.0 / np.sqrt(self._deg[anchors[start:end]][rep] * self._deg[nbrs])
        out[start:end] = _segment_reduce(np.add, vals * scale[:, None], seg)

    def _global(self, term, frame: dict, m: int, path: tuple) -> np.ndarray:
        sub = path + (f"wmean[{term.bound}]",)
        n = self.graph.n
        allv = np.arange(n)
        fv_val = set(free_vars(term.value)) - {term.bound}
        fv_eta = set(free_vars(term.weight_arg)) - {term.bound}
        if not fv_val and (term.weight_map == "one" or not fv_eta):
            # the aggregate is one global vector; compute over all nodes once
            res = self._wmean(term, {term.bound: allv}, n, None, sub)
            return np.broadcast_to(res, (m, self.d))

        rows_per = max(1, _CHUNK_ROWS // n)
        out = np.empty((m, self.d))
        for s in range(0, m, rows_per):
            e = min(m, s + rows_per)
            nrows = e - s
            rep = np.repeat(np.arange(nrows), n)
            child = {v: arr[s:e][rep] for v, arr in frame.items()}
            child[term.bound] = np.tile(allv, nrows)
            out[s:e] = self._wmean(term, child, nrows * n,
                                   np.arange(nrows + 1) * n, sub)
        return out

    def _wmean(self, term, child: dict, rows: int, seg, sub: tuple) -> np.ndarray:
        """Evaluate an aggregate's body on expanded rows and reduce them."""
        vals = self._value_at(term.value, child, rows, sub)
        eta = (None if term.weight_map == "one"
               else self._value_at(term.weight_arg, child, rows, sub))
        try:
            return wmean_reduce(vals, eta, term.weight_map, self.registry, seg)
        except EvaluationError as err:
            raise EvaluationError(f"{err} in {_join(sub)}") from None

    # ------------------------------------------------------------------
    # helpers

    def _rw_matrix(self, kmax: int) -> np.ndarray:
        mat = self._rw_cache.get(kmax)
        if mat is None:
            mat = np.ascontiguousarray(
                fit_width(rw_encoding_all(self.graph, kmax), self.d))
            mat.flags.writeable = False
            self._rw_cache[kmax] = mat
        return mat

    def _check_finite(self, arr: np.ndarray, path: tuple) -> None:
        if not np.all(np.isfinite(arr)):
            raise EvaluationError(f"non-finite value in {_join(path)}")


def _join(path: tuple) -> str:
    return " / ".join(path) if path else "term"


def _skel_string(term: T.Term, env: dict, depth: int) -> str:
    if isinstance(term, T.Const):
        return "C" + repr(term.value)
    if isinstance(term, T.Feature):
        return "H:" + env[term.var]
    if isinstance(term, T.Rw):
        return f"rw:{env[term.var]}:{term.kmax}"
    if isinstance(term, T.Apply):
        inner = ",".join(_skel_string(a, env, depth) for a in term.args)
        return f"A:{term.fn}({inner})"
    if isinstance(term, T.LocalWMean):
        tag = f"b{depth}"
        env2 = {**env, term.bound: tag}
        return (f"L[{tag}<{env[term.anchor]}]:{term.weight_map}"
                f"({_skel_string(term.value, env2, depth + 1)};"
                f"{_skel_string(term.weight_arg, env2, depth + 1)})")
    if isinstance(term, T.GlobalWMean):
        tag = f"b{depth}"
        env2 = {**env, term.bound: tag}
        return (f"G[{tag}]:{term.weight_map}"
                f"({_skel_string(term.value, env2, depth + 1)};"
                f"{_skel_string(term.weight_arg, env2, depth + 1)})")
    if isinstance(term, T.GcnAgg):
        tag = f"b{depth}"
        env2 = {**env, term.bound: tag}
        return f"N[{tag}<{env[term.anchor]}]({_skel_string(term.value, env2, depth + 1)})"
    raise TypeError(f"not a term: {term!r}")


def eval_closed(term: T.Term, graph, registry: FunctionRegistry | None = None) -> np.ndarray:
    """Evaluate a closed term on a featured graph, returning a (d,) vector."""
    return Evaluator(graph, registry).closed(term)


def eval_nodewise(term: T.Term, graph, registry: FunctionRegistry | None = None) -> np.ndarray:
    """Evaluate a term with one free variable at every node, as an (n, d) array."""
    return Evaluator(graph, registry).nodewise(term)


def eval_term(term: T.Term, graph, assignment: dict[str, int] | None = None,
              registry: FunctionRegistry | None = None) -> np.ndarray:
    """Evaluate a term under an assignment of its free variables to nodes."""
    return Evaluator(graph, registry).at(term, assignment)

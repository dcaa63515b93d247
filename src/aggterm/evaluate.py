"""Evaluation of aggregation terms over featured graphs.

Interpreter holds the one definition of what each term node means. It
has two users: Evaluator here, on a sampled graph, and mc.McEngine, the
engine of both limit predictors, on feature draws. The base owns
constants and function application, including the finiteness check and
the error path; each user supplies only features, walk returns and the
two aggregate kinds, so a term's value on a graph and its predicted
limit cannot drift apart in meaning.

One Evaluator serves all three entry points (closed terms, nodewise
maps, single assignments), so the same term on the same graph always
produces bit-identical numbers regardless of how it is invoked.

Design notes:

* Subterms with no free variables are computed once and cached by a
  structural key. Subterms with exactly one free variable are computed for
  all n nodes at once and cached as an (n, d) matrix; evaluation at
  specific nodes is then a row gather. Only subterms whose weights depend
  on two or more variables fall back to explicit expansion.
* Neighborhood aggregation that is linear in the body's nodewise rows
  (linear_form: a gcn, or a mean under weight map one, whose body reads
  only the bound variable, as in mean, gcn and GPS-MPNN layers) can be
  one adjacency product for all nodes, (A @ H) / deg or
  D^-1/2 A D^-1/2 H, taken as dense slabs of adjacency rows
  (graphs.dense_rows, which also builds rw's dense S) times H
  (adjacency_product). Like rw's plan, the choice compares two work
  estimates from the node and edge counts: n^2 slab entries plus the
  edges scattered into them, against the expanded rows below.
* Every other neighborhood aggregate, and linear ones on sparse graphs,
  expands (anchor, neighbor) pairs into flat arrays and reduces with
  segment sums, chunked so the expansion never exceeds a few million rows
  at a time. That kernel, local_aggregate, is shared with the limit
  engine, which runs it on a disjoint union of decoded neighborhood
  classes with feature draws as trailing axes.
* Every weighted mean, here and in the limit engine, goes through
  wmean_reduce, which owns the exp shift, the denominator check and the
  empty-neighborhood rule.
* Global attention skips the expansion. A global aggregate whose body
  reads outer variables normally expands all (outer row, node) pairs, n
  rows per outer row. When its weight map is exp, its value reads only
  the bound variable, and its weight argument is f(a, b) with f carrying
  a registered pairwise form, a free of the bound variable and b reading
  only it (GPS's exp(q(x) . k(z) / sqrt(d)) attention; attention_form),
  each chunk of outer rows instead gets its score matrix from the
  pairwise form, one matrix product for dot_scaled, and
  attention_reduce takes the means with two more. Chunks depend only on
  n either way, and every other shape keeps the expansion.
"""

from __future__ import annotations

import numpy as np

from . import terms as T
from .errors import ConfigError, EvaluationError
from .graphs import dense_rows, flat_ranges
from .registry import FunctionRegistry, default_registry, fit_width
from .rw import rw_encoding_all
from .terms import free_vars, validate_term

_CHUNK_ROWS = 1 << 21
# work in slab multiply-adds, as in rw's plan: an expanded (anchor,
# neighbor) row costs about _PAIR_COST per coordinate, a dense slab entry
# _SLAB_ENTRY_COST plus its d multiply-adds, and an edge scattered into a
# slab _SLAB_EDGE_COST (timed on one core at n = 1000 and 3000, d = 1..64)
_PAIR_COST, _SLAB_ENTRY_COST, _SLAB_EDGE_COST = 250.0, 35.0, 270.0


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
                 mass: np.ndarray | None = None, path: tuple = ()) -> np.ndarray:
    """Weighted means of the rows of vals, over segments or the leading axis.

    vals and eta are (rows, ..., d). With seg, segment k covers rows
    seg[k]:seg[k+1] and the result is (len(seg) - 1, ..., d). With
    seg=None one mean runs over the leading axis with a plain axis sum, and
    the result drops that axis. Either way every trailing index gets its
    own mean. Row weights are weight_map(eta), times mass[row] when a mass
    is given, so a mixture can weight each row by its share. The weight map
    "one" never reads eta, which may then be None.

    exp weights are stabilized by subtracting the per-mean maximum of eta
    before exponentiating. Weighted means are invariant under this shift,
    and it keeps denominators in a sane floating range. A denominator that
    is zero or not finite (a weight map that underflows to zero across a
    whole segment) raises instead of dividing, as does a mean that is not
    finite; the error names path, the term nodes down to the aggregate. An
    empty segment, or an empty leading axis, yields zeros by definition.
    """
    if seg is None and vals.shape[0] == 0:
        return np.zeros(vals.shape[1:])
    counts = None if seg is None else np.diff(seg)
    # shape that broadcasts a per-row (or per-segment) scalar along rows
    col = (-1,) + (1,) * (vals.ndim - 1)
    # the repeated segment maxima are a vals-sized temporary: leave them
    # unnamed so they are freed once subtracted
    if weight_map == "one":
        w = None
    elif weight_map != "exp":
        flat = eta.reshape(-1, eta.shape[-1])
        w = registry.call(weight_map, [flat]).reshape(eta.shape)
    elif seg is None:
        w = eta - eta.max(axis=0, keepdims=True)
    else:
        w = eta - np.repeat(_segment_reduce(np.maximum, eta, seg), counts,
                            axis=0)
    if weight_map == "exp":
        # the shifted eta is this function's own array: exponentiate it, and
        # scale it by the mass, in place instead of allocating copies
        np.exp(w, out=w)
        if mass is not None:
            w *= mass.reshape(col)
    elif mass is not None:
        mass = mass.reshape(col)
        w = mass if w is None else w * mass
    if seg is None:
        num = vals.sum(axis=0) if w is None else (vals * w).sum(axis=0)
        den = vals.shape[0] if w is None else w.sum(axis=0)
    else:
        nonempty = counts > 0
        if w is None:
            num, den = _segment_reduce(np.add, vals, seg), counts.reshape(col)
        else:
            num = _segment_reduce(np.add, vals * w, seg)
            den = _segment_reduce(np.add, w, seg)
        num, den = num[nonempty], den[nonempty]
    res = _checked_ratio(num, den, weight_map, path)
    if seg is None:
        return res
    out = np.zeros((counts.shape[0],) + vals.shape[1:])
    out[nonempty] = res
    return out


def attention_reduce(scores: np.ndarray, vals: np.ndarray,
                     path: tuple = ()) -> np.ndarray:
    """Means of the rows of vals under weights exp(scores), one per score row.

    scores is (m, k), one score per (outer row, pool row) pair, and vals is
    (k, d). Row i of the (m, d) result is the mean wmean_reduce takes over a
    k-row segment with weight map exp and eta[j] = scores[i, j] in every
    component: the row is shifted by its maximum, then the ratio is
    (exp(S) @ vals) / (exp(S) @ 1), two BLAS products in place of m * k
    expanded rows. It keeps wmean_reduce's denominator and finiteness
    checks and their errors.
    """
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    return _checked_ratio(w @ vals, w.sum(axis=1, keepdims=True), "exp", path)


def _checked_ratio(num, den, weight_map: str, path: tuple) -> np.ndarray:
    """num / den, refusing a zero or non-finite denominator or result."""
    if not (np.all(den > 0) and np.all(np.isfinite(den))):
        raise EvaluationError(
            f"weight map {weight_map!r} produced a zero or non-finite "
            f"denominator in {_join(path)}")
    res = num / den
    if not np.all(np.isfinite(res)):
        raise EvaluationError(
            f"weighted mean under weight map {weight_map!r} is not finite "
            f"in {_join(path)}")
    return res


def attention_form(term, registry: FunctionRegistry):
    """The (function name, a, b) of a global aggregate that attention_reduce
    can take, or None.

    That is wmean[z](value, exp, f(a, b)) where value reads only z, a does
    not read z, b reads only z, and f carries a pairwise form in the
    registry. The weight of node z for an outer assignment is then
    exp(pairwise(A, B)[row, z]), with A the values of a on the outer rows
    and B those of b on all nodes.
    """
    w = term.weight_arg
    if (term.weight_map != "exp" or not isinstance(w, T.Apply)
            or len(w.args) != 2 or registry.entry(w.fn).pairwise is None):
        return None
    a, b = w.args
    only_bound = {term.bound}
    if (set(free_vars(term.value)) - only_bound or term.bound in free_vars(a)
            or set(free_vars(b)) - only_bound):
        return None
    return w.fn, a, b


def local_aggregate(term, frame: dict, out: np.ndarray, indptr: np.ndarray,
                    indices: np.ndarray, value_at, registry: FunctionRegistry,
                    path: tuple, chunk_rows: int = _CHUNK_ROWS) -> np.ndarray:
    """Fill out with term, a LocalWMean or GcnAgg on the CSR graph (indptr,
    indices), at the node ids frame gives per row of out. Anchor chunks
    expand to about chunk_rows (anchor, neighbor) rows, on which
    value_at(subterm, child_frame, shape, path) returns a block of that
    shape, (rows,) + out.shape[1:]. path ends with the node itself.

    This is the general kernel and the oracle for adjacency_product, which
    the evaluator takes instead for a linear_form aggregate on a graph
    dense enough that slabs from graphs.dense_rows cost less."""
    anchors, deg = frame[term.anchor], np.diff(indptr)
    counts = deg[anchors]
    cum = np.concatenate([[0], np.cumsum(counts)])
    start, m = 0, out.shape[0]
    while start < m:
        end = int(np.searchsorted(cum, cum[start] + chunk_rows, side="right")) - 1
        end = min(max(end, start + 1), m)
        cnt = counts[start:end]
        seg = cum[start:end + 1] - cum[start]
        shape = (int(seg[-1]),) + out.shape[1:]
        rep = np.repeat(np.arange(end - start), cnt)
        nbrs = indices[flat_ranges(indptr[anchors[start:end]], cnt)]
        child = {v: arr[start:end][rep] for v, arr in frame.items()}
        child[term.bound] = nbrs
        if isinstance(term, T.GcnAgg):
            vals = value_at(term.value, child, shape, path)
            scale = 1.0 / np.sqrt(deg[anchors[start:end]][rep] * deg[nbrs])
            out[start:end] = _segment_reduce(
                np.add, vals * scale.reshape((-1,) + (1,) * (vals.ndim - 1)),
                seg)
        else:
            out[start:end] = _wmean(term, child, shape, seg, path, value_at,
                                    registry)
        start = end
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"non-finite value in {_join(path)}")
    return out


def _wmean(term, child: dict, shape: tuple, seg, path: tuple, value_at,
           registry: FunctionRegistry) -> np.ndarray:
    """Evaluate an aggregate's body on expanded rows and reduce them."""
    vals = value_at(term.value, child, shape, path)
    eta = (None if term.weight_map == "one"
           else value_at(term.weight_arg, child, shape, path))
    return wmean_reduce(vals, eta, term.weight_map, registry, seg, path=path)


def linear_form(term) -> bool:
    """Whether a local aggregate is linear in its body's nodewise rows: a
    gcn, or a mean under weight map one, whose body reads only its bound
    variable. adjacency_product takes exactly these."""
    return ((isinstance(term, T.GcnAgg) or term.weight_map == "one")
            and not reads_outer(term))


def slab_pays(n: int, nnz: int, d: int) -> bool:
    """Whether adjacency_product on n nodes, nnz CSR entries and d
    coordinates costs less work than expanding its nnz rows."""
    return (n * n * (_SLAB_ENTRY_COST + d) + _SLAB_EDGE_COST * nnz
            < _PAIR_COST * d * nnz)


def adjacency_product(term, vals: np.ndarray, indptr: np.ndarray,
                      indices: np.ndarray, path: tuple,
                      block: int = _CHUNK_ROWS) -> np.ndarray:
    """All n rows of term, a local aggregate in linear_form, as products of
    the adjacency A with vals, the (n, d) rows of its body.

    A mean is (A @ vals) / deg and a gcn is s * (A @ (s * vals)) with
    s = 1/sqrt(deg); an empty neighborhood gives 0 either way. A is
    multiplied one dense slab of rows at a time (graphs.dense_rows), each
    of about block entries, so each slab is one matrix product. Errors
    are local_aggregate's.
    """
    n = vals.shape[0]
    deg = np.diff(indptr)
    nonempty = deg > 0
    gcn = isinstance(term, T.GcnAgg)
    if gcn:
        scale = np.divide(1.0, np.sqrt(deg), out=np.zeros(n),
                          where=nonempty)[:, None]
        vals = scale * vals
    vals = np.ascontiguousarray(vals)
    out = np.zeros(vals.shape)
    step = min(n, max(1, block // n))
    slab = np.zeros((step, n))  # one buffer, cleared after each product
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = dense_rows(indptr, indices, lo, hi, out=slab[:hi - lo])
        out[lo:hi] = rows @ vals
        rows.fill(0.0)
    if gcn:
        out *= scale
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"non-finite value in {_join(path)}")
    else:
        out[nonempty] = _checked_ratio(out[nonempty], deg[nonempty, None],
                                       "one", path)
    return out


def reads_outer(term) -> bool:
    """Whether an aggregate's body reads a variable other than its binder.

    One that does not is a single vector for every outer assignment, so it
    is computed once. Only the children it reads count (T.read_children).
    """
    return any(set(free_vars(t)) - {term.bound} for t in T.read_children(term))


class Interpreter:
    """The meaning of each term node, shared by every evaluator of terms.

    _eval is the one dispatch over node kinds. A scope binds the free
    variables (node ids, feature draws, or both) and a block of the given
    shape, whose last axis is d, holds one value per row of the scope.
    The base owns constants and function application; a subclass supplies
    features, walk returns, local and global aggregates, and may route
    subterms through a cache in _value. Errors name the path of nodes from
    the root of the term to the one that failed.
    """

    registry: FunctionRegistry
    d: int

    def _eval(self, term: T.Term, scope, shape: tuple, path: tuple) -> np.ndarray:
        if isinstance(term, T.Const):
            return np.broadcast_to(np.asarray(term.value, dtype=np.float64), shape)
        if isinstance(term, T.Feature):
            return self._feature(term, scope)
        if isinstance(term, T.Rw):
            return self._rw(term, scope, shape)
        if isinstance(term, T.Apply):
            sub = path + (term.fn,)
            args = [self._value(a, scope, shape, sub).reshape(-1, self.d)
                    for a in term.args]
            out = self.registry.call(term.fn, args)
            if args:
                out = out.reshape(shape)
            elif out.shape == (self.d,):
                out = np.broadcast_to(out, shape)
            else:
                raise EvaluationError(
                    f"{term.fn} returned shape {out.shape}, expected ({self.d},)")
            if not np.all(np.isfinite(out)):
                raise EvaluationError(f"non-finite value in {_join(sub)}")
            return out
        if isinstance(term, (T.LocalWMean, T.GcnAgg)):
            return self._local(term, scope, shape, path + (_label(term),))
        if isinstance(term, T.GlobalWMean):
            return self._global(term, scope, shape, path + (_label(term),))
        raise TypeError(f"not a term: {term!r}")

    def _value(self, term: T.Term, scope, shape: tuple, path: tuple) -> np.ndarray:
        """A subterm's block; the evaluator serves it from its caches."""
        return self._eval(term, scope, shape, path)


class Evaluator(Interpreter):
    """Caching evaluator bound to one featured graph.

    Reuse one instance when evaluating several related terms on the same
    graph; shared subterms are computed once. The arrays returned by
    nodewise() are cached internally and marked read-only. A scope is a
    frame mapping each free variable to an array of node ids.
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
        return self._value(term, frame, (1, self.d), ())[0].copy()

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
            val = np.ascontiguousarray(self._eval(term, {}, (1, self.d), path)[0])
            val.flags.writeable = False
            self._closed_cache[key] = val
        return val

    def _nodewise_rows(self, term: T.Term, var: str, path: tuple) -> np.ndarray:
        key = self._skeleton(term, var)
        rows = self._node_cache.get(key)
        if rows is None:
            n = self.graph.n
            rows = np.ascontiguousarray(
                self._eval(term, {var: np.arange(n)}, (n, self.d), path))
            rows.flags.writeable = False
            self._node_cache[key] = rows
        return rows

    def _value(self, term: T.Term, frame: dict, shape: tuple, path: tuple) -> np.ndarray:
        fv = free_vars(term)
        if not fv:
            return np.broadcast_to(self._closed(term, path), shape)
        if len(fv) == 1:
            return self._nodewise_rows(term, fv[0], path)[frame[fv[0]]]
        return self._eval(term, frame, shape, path)

    # ------------------------------------------------------------------
    # node kinds

    def _feature(self, term: T.Feature, frame: dict) -> np.ndarray:
        return self._feat[frame[term.var]]

    def _rw(self, term: T.Rw, frame: dict, shape: tuple) -> np.ndarray:
        mat = self._rw_cache.get(term.kmax)
        if mat is None:
            mat = np.ascontiguousarray(
                fit_width(rw_encoding_all(self.graph, term.kmax), self.d))
            mat.flags.writeable = False
            self._rw_cache[term.kmax] = mat
        return mat[frame[term.var]]

    def _local(self, term, frame: dict, shape: tuple, path: tuple) -> np.ndarray:
        g = self.graph
        if linear_form(term) and slab_pays(g.n, len(g.indices), self.d):
            vals = self._value(term.value, {term.bound: np.arange(g.n)},
                               (g.n, self.d), path)
            return adjacency_product(term, vals, g.indptr, g.indices,
                                     path)[frame[term.anchor]]
        return local_aggregate(term, frame, np.empty(shape), g.indptr,
                               g.indices, self._value, self.registry, path)

    def _global(self, term, frame: dict, shape: tuple, path: tuple) -> np.ndarray:
        n = self.graph.n
        allv = np.arange(n)
        if not reads_outer(term):
            # the aggregate is one global vector; compute over all nodes once
            res = _wmean(term, {term.bound: allv}, (n, self.d), None, path,
                         self._value, self.registry)
            return np.broadcast_to(res, shape)

        m = shape[0]
        rows_per = max(1, _CHUNK_ROWS // n)
        out = np.empty(shape)
        att = attention_form(term, self.registry)
        if att is not None:
            fn, a, b = att
            sub = path + (fn,)
            every = {term.bound: allv}
            vals = self._value(term.value, every, (n, self.d), path)
            keys = self._value(b, every, (n, self.d), sub)
        for s in range(0, m, rows_per):
            e = min(m, s + rows_per)
            nrows = e - s
            rows = {v: arr[s:e] for v, arr in frame.items()}
            if att is not None:
                queries = self._value(a, rows, (nrows, self.d), sub)
                scores = self.registry.call_pairwise(fn, queries, keys)
                if not np.all(np.isfinite(scores)):
                    raise EvaluationError(f"non-finite value in {_join(sub)}")
                out[s:e] = attention_reduce(scores, vals, path)
            else:
                rep = np.repeat(np.arange(nrows), n)
                child = {v: arr[rep] for v, arr in rows.items()}
                child[term.bound] = np.tile(allv, nrows)
                out[s:e] = _wmean(term, child, (nrows * n, self.d),
                                  np.arange(nrows + 1) * n, path, self._value,
                                  self.registry)
        return out


def _join(path: tuple) -> str:
    return " / ".join(path) if path else "term"


def _label(term) -> str:
    """How an error path names an aggregate node."""
    kind = "gcn" if isinstance(term, T.GcnAgg) else "wmean"
    nbhd = f" in N({term.anchor})" if hasattr(term, "anchor") else ""
    return f"{kind}[{term.bound}{nbhd}]"


def _skel_string(term: T.Term, env: dict, depth: int) -> str:
    """A cache key for term that names each variable by env or, for a
    binder, by its depth, so equal subterms under renaming share a key."""
    if isinstance(term, T.Const):
        return "C" + repr(term.value)
    if isinstance(term, T.Feature):
        return "H:" + env[term.var]
    if isinstance(term, T.Rw):
        return f"rw:{env[term.var]}:{term.kmax}"
    kids = T.children(term)
    if isinstance(term, T.Apply):
        head = "A:" + term.fn
    else:
        anchor = env.get(getattr(term, "anchor", None), "")
        env = {**env, term.bound: f"b{depth}"}
        head = (f"{type(term).__name__}[b{depth}<{anchor}]:"
                f"{getattr(term, 'weight_map', '')}")
        depth += 1
    return f"{head}({';'.join(_skel_string(k, env, depth) for k in kids)})"


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

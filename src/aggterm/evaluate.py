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

* Subterms with no free variables are computed once and cached by the
  node's id (terms), so subterms that differ only in variable names share
  one entry. Subterms with exactly one free variable are computed for all
  n nodes at once and cached, under the same ids, as an (n, d) matrix;
  evaluation at specific nodes is then a row gather. Only subterms whose
  weights depend on two or more variables fall back to explicit
  expansion.
* One plan (plan) sorts every aggregate into the kernel that takes it:
  - linear: a gcn, or a mean under weight map one, whose body reads only
    the bound variable (mean, gcn and GPS-MPNN layers). Its value is
    linear in the body's nodewise rows.
  - scored: a mean under exp whose weight argument is f(a, b), or u(f(a,
    b)) with u a registered elementwise map, where f carries a score form
    (registry), a does not read the bound variable and b and the value
    read only it: GAT's exp(leaky02(att(h(x), h(y)))) and GPS's
    exp(dot_scaled(q(x), k(z))). The weight of a pair is then one scalar,
    exp(u(score)), computed from a's rows and b's rows once, not a d-wide
    block per expanded row.
  - expansion: everything else.
* A local aggregate that is linear or scored and reads no variable but
  its anchor is one matrix product for all nodes: (A @ H) / deg,
  D^-1/2 A D^-1/2 H, or (W @ H) / (W @ 1) with W the adjacency carrying
  each CSR entry's shifted exp score. It is taken as dense slabs of rows
  (graphs.dense_rows, which also builds rw's row slabs of S) times H
  (adjacency_product). Like rw's plan, the choice compares two work
  estimates from the node and edge counts (slab_pays): n^2 slab entries
  plus the edges scattered into them, against the expanded rows below.
* Every other local aggregate, and the above on sparse graphs, expands
  (anchor, neighbor) pairs into flat arrays and reduces with segment sums,
  chunked so the expansion holds about graphs.BLOCK elements at a time. A
  scored one evaluates a once per anchor row and reduces one score per
  expanded row. That kernel, local_aggregate, is shared with the limit
  engine, which runs it on a disjoint union of decoded neighborhood
  classes with feature draws as trailing axes.
* Every weighted mean, here and in the limit engine, takes its weights
  from _weights (the maps, the exp shift) and its ratio and denominator
  check from _checked_ratio: over segments in wmean_reduce (with the
  empty-neighborhood rule), over the leading axis in _Mean (closed global
  means, and the engine's global ones), and in the slab products and
  attention_reduce.
* A global aggregate whose body reads outer variables expands all (outer
  row, node) pairs, n rows per outer row, unless it is scored. Then each
  chunk of outer rows gets its score matrix from the score form (one
  matrix product for dot_scaled, a broadcast sum for an additive form)
  and the elementwise map, and attention_reduce takes the means with two
  more products. Chunks and slabs hold about graphs.BLOCK elements.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import graphs
from . import terms as T
from .errors import ConfigError, EvaluationError, as_int
from .registry import FunctionRegistry, default_registry, fit_width
from .rw import rw_encoding_all
from .terms import validate_term

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


def _weights(weight_map: str, eta: np.ndarray | None,
             registry: FunctionRegistry | None, top) -> np.ndarray | None:
    """Row weights weight_map(eta): None under "one", which never reads
    eta; under exp, exp(eta - top(eta)) with top(eta) the maximum of each
    mean's rows (means are invariant under the shift, which keeps
    denominators in range), an array the caller may scale in place; any
    other map is a registry call on the rows of eta."""
    if weight_map == "one":
        return None
    if weight_map == "exp":
        w = eta - top(eta)  # maxima left unnamed: freed once subtracted
        return np.exp(w, out=w)
    return registry.call(weight_map, [eta.reshape(-1, eta.shape[-1])]
                         ).reshape(eta.shape)


def _segment_top(seg: np.ndarray):
    """The exp shift over segments seg: each row's segment maximum."""
    return lambda eta: np.repeat(_segment_reduce(np.maximum, eta, seg),
                                 np.diff(seg), axis=0)


def wmean_reduce(vals: np.ndarray, eta: np.ndarray | None, weight_map: str,
                 registry: FunctionRegistry, seg: np.ndarray,
                 path: tuple = ()) -> np.ndarray:
    """Weighted means of the rows of vals over segments seg[k]:seg[k+1].

    vals and eta are (rows, ..., d); eta may instead end in an axis of 1,
    one weight per row shared by all d components. The result is
    (len(seg) - 1, ..., d), every trailing index with its own mean under
    the row weights _weights(weight_map, eta). A denominator that is zero
    or not finite, or a mean that is not finite, raises (_checked_ratio)
    naming path, the term nodes down to the aggregate. An empty segment
    yields zeros by definition. _Mean is the mean over the leading axis.
    """
    w = _weights(weight_map, eta, registry, _segment_top(seg))
    counts = np.diff(seg)
    num = _segment_reduce(np.add, vals if w is None else vals * w, seg)
    den = (counts.reshape((-1,) + (1,) * (vals.ndim - 1)) if w is None
           else _segment_reduce(np.add, w, seg))
    # the full sums are freed before the result is allocated
    nonempty = counts > 0
    num, den = num[nonempty], den[nonempty]
    out = np.zeros((len(counts),) + vals.shape[1:])
    out[nonempty] = _checked_ratio(num, den, weight_map, path)
    return out


class _Mean:
    """One weighted mean over the leading axis of row blocks fed one at a
    time: a row weighs _weights(weight_map, eta), times its mass if add
    gets one (a draw's share), and the sums of weight times value and
    of weight run over the blocks. Exp weights share one shift, the
    largest eta so far, and the sums are rescaled when a block raises it.
    """

    def __init__(self, weight_map: str, registry: FunctionRegistry):
        self.map, self.registry = weight_map, registry
        self.num = self.den = self.top = None

    def add(self, vals: np.ndarray, eta: Optional[np.ndarray],
            mass: Optional[np.ndarray] = None) -> None:
        w = _weights(self.map, eta, self.registry, self._shift)
        if mass is not None:
            mass = mass.reshape((-1,) + (1,) * (vals.ndim - 1))
            if self.map == "exp":
                w *= mass  # _weights' own array: scaled without a copy
            else:
                w = mass if w is None else w * mass
        num = (vals if w is None else vals * w).sum(axis=0)
        den = vals.shape[0] if w is None else w.sum(axis=0)
        if self.num is None:
            self.num, self.den = num, den
        else:
            self.num += num
            self.den += den

    def _shift(self, eta: np.ndarray) -> np.ndarray:
        """The largest eta so far, the sums rescaled to it."""
        top = eta.max(axis=0, keepdims=True)
        if self.top is not None:
            top = np.maximum(top, self.top)
            # exactly 1 where the shift stays
            scale = np.exp(self.top - top)[0]
            self.num *= scale
            self.den *= scale
        self.top = top
        return top

    def value(self, path: tuple) -> np.ndarray:
        return _checked_ratio(self.num, self.den, self.map, path)


def attention_reduce(scores: np.ndarray, vals: np.ndarray,
                     path: tuple = ()) -> np.ndarray:
    """Means of the rows of vals under weights exp(scores), one per score row.

    scores is (m, k), one score per (outer row, pool row) pair, and vals is
    (k, d). Row i of the (m, d) result is the mean wmean_reduce takes over a
    k-row segment with weight map exp and eta[j] = scores[i, j] in every
    component: the row is shifted by its maximum, then the ratio is
    (exp(S) @ vals) / (exp(S) @ 1), two BLAS products in place of m * k
    expanded rows, with the same checks and errors.
    """
    w = _weights("exp", scores, None, lambda s: s.max(axis=1, keepdims=True))
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


def _body(term, value_at, *args) -> tuple:
    """An aggregate's value, then its weight argument, each
    value_at(subterm, *args); the weight argument is None under the map
    "one", which never reads it."""
    vals = value_at(term.value, *args)
    return vals, (None if term.weight_map == "one"
                  else value_at(term.weight_arg, *args))


class Plan(NamedTuple):
    """The kernel an aggregate takes (plan), with a scored one's parts."""

    kind: str  # "linear", "scored" or "expansion"
    fn: Optional[str] = None  # the function carrying a score form
    unary: Optional[str] = None  # the elementwise map around it, if any
    a: Optional[T.Term] = None  # fn's first argument, free of the binder
    b: Optional[T.Term] = None  # fn's second, reading only the binder

    def score_path(self, path: tuple) -> tuple:
        """The path of fn's node below the aggregate at path."""
        return path + ((self.unary,) if self.unary else ()) + (self.fn,)


_EXPANSION = Plan("expansion")


def plan(term, registry: FunctionRegistry) -> Plan:
    """Sort an aggregate into linear, scored or expansion.

    linear: a gcn, or a mean under weight map one, whose body reads only
    its bound variable z; adjacency_product takes it. scored:
    wmean[z](value, exp, f(a, b)) or wmean[z](value, exp, u(f(a, b))),
    where f carries a score form and u is elementwise in the registry, a
    does not read z, and b and value read only z. The weight of node z for
    an outer assignment is then exp(u(score(A[row], B[z]))), one scalar,
    with A the values of a on the outer rows and B those of b on the
    nodes. Everything else is expanded.
    """
    if isinstance(term, T.GcnAgg) or term.weight_map == "one":
        return _EXPANSION if term.outer else Plan("linear")
    w, unary = term.weight_arg, None
    if term.weight_map != "exp" or not isinstance(w, T.Apply):
        return _EXPANSION
    if (len(w.args) == 1 and isinstance(w.args[0], T.Apply)
            and registry.entry(w.fn).elementwise):
        unary, w = w.fn, w.args[0]
    if len(w.args) != 2 or not registry.entry(w.fn).scored:
        return _EXPANSION
    a, b = w.args
    only_bound = {term.bound}
    if (set(term.value.free) - only_bound or term.bound in a.free
            or set(b.free) - only_bound):
        return _EXPANSION
    return Plan("scored", w.fn, unary, a, b)


def _checked_scores(pl: Plan, scores: np.ndarray, path: tuple,
                    registry: FunctionRegistry) -> np.ndarray:
    """A scored aggregate's scores under its elementwise map, refused
    where either is not finite with the error the expansion raises."""
    if not np.all(np.isfinite(scores)):
        raise EvaluationError(
            f"non-finite value in {_join(pl.score_path(path))}")
    if pl.unary is None:
        return scores
    scores = registry.call(pl.unary, [scores])
    if not np.all(np.isfinite(scores)):
        raise EvaluationError(
            f"non-finite value in {_join(path + (pl.unary,))}")
    return scores


def local_aggregate(term, frame: dict, out: np.ndarray, indptr: np.ndarray,
                    indices: np.ndarray, value_at, registry: FunctionRegistry,
                    path: tuple, scores: Optional[np.ndarray] = None) -> np.ndarray:
    """Fill out with term, a LocalWMean or GcnAgg on the CSR graph (indptr,
    indices), at the node ids frame gives per row of out. Anchor chunks
    expand to (anchor, neighbor) rows of about graphs.BLOCK elements, on
    which value_at(subterm, child_frame, shape, path) returns a block of
    that shape, (rows,) + out.shape[1:]. path ends with the node itself.

    A scored aggregate (plan) reduces one score per expanded row (and
    trailing index) through wmean_reduce: scores[k] for the row of CSR
    entry k when the caller gives one score per entry, else its score's
    first argument on the chunk's anchor rows and its second on the
    expanded rows.

    This is the general kernel. With a registry whose functions carry no
    score form it is the oracle for adjacency_product, which the evaluator
    takes instead for a linear or scored aggregate on a graph dense enough
    that slabs from graphs.dense_rows cost less."""
    pl = plan(term, registry)
    anchors, deg = frame[term.anchor], np.diff(indptr)
    counts = deg[anchors]
    cum = np.concatenate([[0], np.cumsum(counts)])
    row = int(np.prod(out.shape[1:]))  # elements per expanded row
    for start, end in graphs.cost_blocks(counts * row, graphs.BLOCK):
        cnt = counts[start:end]
        seg = cum[start:end + 1] - cum[start]
        shape = (int(seg[-1]),) + out.shape[1:]
        rep = np.repeat(np.arange(end - start), cnt)
        entries = graphs.flat_ranges(indptr[anchors[start:end]], cnt)
        nbrs = indices[entries]
        rows = {v: arr[start:end] for v, arr in frame.items()}
        child = {v: arr[rep] for v, arr in rows.items()}
        child[term.bound] = nbrs
        if pl.kind == "scored":
            vals = value_at(term.value, child, shape, path)
            eta = (scores[entries] if scores is not None else _segment_scores(
                pl, rows, cnt, child, shape, path, value_at, registry))
            out[start:end] = wmean_reduce(vals, eta[..., None], "exp",
                                          registry, seg, path=path)
        elif isinstance(term, T.GcnAgg):
            vals = value_at(term.value, child, shape, path)
            scale = 1.0 / np.sqrt(deg[anchors[start:end]][rep] * deg[nbrs])
            out[start:end] = _segment_reduce(
                np.add, vals * scale.reshape((-1,) + (1,) * (vals.ndim - 1)),
                seg)
        else:
            out[start:end] = wmean_reduce(
                *_body(term, value_at, child, shape, path), term.weight_map,
                registry, seg, path=path)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"non-finite value in {_join(path)}")
    return out


def _segment_scores(pl: Plan, rows: dict, cnt: np.ndarray, child: dict,
                    shape: tuple, path: tuple, value_at,
                    registry: FunctionRegistry) -> np.ndarray:
    """The scores of a chunk's expanded rows, shape[:-1]: pl.a on the
    chunk's anchor rows that have neighbors (the rows the expansion reads),
    pl.b on the expanded rows, each trailing index paired with its own."""
    sub = pl.score_path(path)
    keep = np.flatnonzero(cnt)
    tail, d = shape[1:], shape[-1]
    left = value_at(pl.a, {v: arr[keep] for v, arr in rows.items()},
                    (len(keep),) + tail, sub)
    right = value_at(pl.b, child, shape, sub)
    per = int(np.prod(tail[:-1], dtype=np.int64))
    owner = np.repeat(np.arange(len(keep)) * per, cnt[keep])
    scores = registry.call_pairs(
        pl.fn, left.reshape(-1, d), right.reshape(-1, d),
        (owner[:, None] + np.arange(per)).reshape(-1))
    return _checked_scores(pl, scores.reshape(shape[:-1]), path, registry)


def slab_pays(n: int, nnz: int, d: int) -> bool:
    """Whether adjacency_product on n nodes, nnz CSR entries and d
    coordinates costs less work than expanding its nnz rows."""
    return (n * n * (_SLAB_ENTRY_COST + d) + _SLAB_EDGE_COST * nnz
            < _PAIR_COST * d * nnz)


def adjacency_product(term, vals: np.ndarray, indptr: np.ndarray,
                      indices: np.ndarray, path: tuple,
                      scores: Optional[np.ndarray] = None) -> np.ndarray:
    """All n rows of term, a linear or scored local aggregate (plan), as
    products of the adjacency A with vals, the (n, d) rows of its body.

    A mean is (A @ vals) / deg and a gcn is s * (A @ (s * vals)) with
    s = 1/sqrt(deg). A scored mean takes scores, one per CSR entry, and is
    (W @ vals) / (W @ 1), where W carries exp(score) shifted by its row's
    maximum score, as wmean_reduce shifts. An empty neighborhood gives 0
    every way. A is multiplied one dense slab of rows at a time
    (graphs.dense_rows), each of about graphs.BLOCK entries, so each slab
    is one matrix product. Errors: local_aggregate's.
    """
    n = vals.shape[0]
    deg = np.diff(indptr)
    nonempty = deg > 0
    gcn = isinstance(term, T.GcnAgg)
    weights = (None if scores is None
               else _weights("exp", scores, None, _segment_top(indptr)))
    if gcn:
        scale = np.divide(1.0, np.sqrt(deg), out=np.zeros(n),
                          where=nonempty)[:, None]
        vals = scale * vals
    vals = np.ascontiguousarray(vals)
    out = np.zeros(vals.shape)
    step = min(n, max(1, graphs.BLOCK // n))
    slab = np.zeros((step, n))  # one buffer, cleared after each product
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = graphs.dense_rows(indptr, indices, lo, hi, weights,
                                 out=slab[:hi - lo])
        out[lo:hi] = rows @ vals
        rows.fill(0.0)
    if gcn:
        out *= scale
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"non-finite value in {_join(path)}")
    else:
        den = deg if weights is None else _segment_reduce(np.add, weights,
                                                          indptr)
        out[nonempty] = _checked_ratio(out[nonempty], den[nonempty, None],
                                       term.weight_map, path)
    return out


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
        # term id -> a closed subterm's (d,) value or the (n, d) rows of
        # one with one free variable
        self._cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # public entry points

    def closed(self, term: T.Term) -> np.ndarray:
        validate_term(term, self.registry, self.d)
        if term.free:
            raise EvaluationError(
                f"term has free variables {term.free}; expected a closed term")
        return self._cached(term, ())

    def nodewise(self, term: T.Term) -> np.ndarray:
        validate_term(term, self.registry, self.d)
        fv = term.free
        if len(fv) != 1:
            raise EvaluationError(
                f"nodewise evaluation needs exactly one free variable, got {fv}")
        return self._cached(term, ())

    def at(self, term: T.Term, assignment: dict[str, int] | None = None) -> np.ndarray:
        validate_term(term, self.registry, self.d)
        assignment = assignment or {}
        missing = [v for v in term.free if v not in assignment]
        if missing:
            raise EvaluationError(f"assignment is missing variables {missing}")
        frame = {}
        for v in term.free:
            node = as_int(assignment[v], f"node id of {v}")
            if not 0 <= node < self.graph.n:
                raise EvaluationError(f"assignment {v}={node} is out of range")
            frame[v] = np.array([node])
        return self._value(term, frame, (1, self.d), ())[0].copy()

    # ------------------------------------------------------------------
    # caching layers

    def _cached(self, term: T.Term, path: tuple) -> np.ndarray:
        """A closed term's (d,) value, or the (n, d) rows of a term with
        one free variable bound to every node in turn, computed once per
        term id."""
        got = self._cache.get(term.id)
        if got is None:
            if term.free:
                n = self.graph.n
                got = self._eval(term, {term.free[0]: np.arange(n)},
                                 (n, self.d), path)
            else:
                got = self._eval(term, {}, (1, self.d), path)[0]
            got = np.ascontiguousarray(got)
            got.flags.writeable = False
            self._cache[term.id] = got
        return got

    def _value(self, term: T.Term, frame: dict, shape: tuple, path: tuple) -> np.ndarray:
        fv = term.free
        if not fv:
            return np.broadcast_to(self._cached(term, path), shape)
        if len(fv) == 1:
            return self._cached(term, path)[frame[fv[0]]]
        return self._eval(term, frame, shape, path)

    def _rows(self, term: T.Term, path: tuple) -> np.ndarray:
        """The (n, d) rows of a term with at most one free variable, bound
        to every node in turn: the cached array itself, not a gather."""
        rows = self._cached(term, path)
        return rows if term.free else np.broadcast_to(rows, (self.graph.n,
                                                             self.d))

    # ------------------------------------------------------------------
    # node kinds

    def _feature(self, term: T.Feature, frame: dict) -> np.ndarray:
        return self._feat[frame[term.var]]

    def _rw(self, term: T.Rw, frame: dict, shape: tuple) -> np.ndarray:
        # an Rw node has one free variable, so _cached takes it, once per
        # kmax (nodes with equal kmax share an id), with every node bound
        return fit_width(rw_encoding_all(self.graph, term.kmax),
                         self.d)[frame[term.var]]

    def _local(self, term, frame: dict, shape: tuple, path: tuple) -> np.ndarray:
        g = self.graph
        pl = plan(term, self.registry)
        scores = None
        # an aggregate that reads only its anchor is one row per node, taken
        # for all n at once: as slabs where they pay, else with the scores
        # of all CSR entries formed once from nodewise rows; its body comes
        # first, as the expansion evaluates it before the weights
        if pl.kind != "expansion" and term.free == (term.anchor,):
            vals = self._rows(term.value, path)
            if pl.kind == "scored":
                scores = self._edge_scores(term, pl, path)
            if slab_pays(g.n, len(g.indices), self.d):
                out = adjacency_product(term, vals, g.indptr, g.indices, path,
                                        scores=scores)
                return out[frame[term.anchor]]
        return local_aggregate(term, frame, np.empty(shape), g.indptr,
                               g.indices, self._value, self.registry, path,
                               scores=scores)

    def _edge_scores(self, term, pl: Plan, path: tuple) -> np.ndarray:
        """A scored aggregate's score per CSR entry: the entry from node v
        to node u scores pl.a at v against pl.b at u. Entries go to the
        score form in blocks, as a bilinear form gathers d-wide rows."""
        g, n = self.graph, self.graph.n
        sub = pl.score_path(path)
        left, right = self._rows(pl.a, sub), self._rows(pl.b, sub)
        owner = np.repeat(np.arange(n), g.degrees)
        step = max(1, graphs.BLOCK // self.d)
        scores = np.concatenate([
            self.registry.call_pairs(pl.fn, left, right, owner[k:k + step],
                                     g.indices[k:k + step])
            for k in range(0, len(owner), step) or [0]])  # [0]: no edges
        return _checked_scores(pl, scores, path, self.registry)

    def _global(self, term, frame: dict, shape: tuple, path: tuple) -> np.ndarray:
        n = self.graph.n
        allv = np.arange(n)
        if not term.outer:
            # the aggregate is one global vector: one mean over all nodes
            mean = _Mean(term.weight_map, self.registry)
            mean.add(*_body(term, self._value, {term.bound: allv},
                            (n, self.d), path))
            return np.broadcast_to(mean.value(path), shape)

        m = shape[0]
        out = np.empty(shape)
        pl = plan(term, self.registry)
        scored = pl.kind == "scored"
        # an outer row holds n scores, or n expanded rows of d values
        rows_per = max(1, graphs.BLOCK // (n if scored else n * self.d))
        if scored:
            sub = pl.score_path(path)
            vals, keys = self._rows(term.value, path), self._rows(pl.b, sub)
        for s in range(0, m, rows_per):
            e = min(m, s + rows_per)
            nrows = e - s
            rows = {v: arr[s:e] for v, arr in frame.items()}
            if scored:
                queries = self._value(pl.a, rows, (nrows, self.d), sub)
                scores = _checked_scores(
                    pl, self.registry.call_pairwise(pl.fn, queries, keys),
                    path, self.registry)
                out[s:e] = attention_reduce(scores, vals, path)
            else:
                rep = np.repeat(np.arange(nrows), n)
                child = {v: arr[rep] for v, arr in rows.items()}
                child[term.bound] = np.tile(allv, nrows)
                out[s:e] = wmean_reduce(
                    *_body(term, self._value, child, (nrows * n, self.d),
                           path), term.weight_map, self.registry,
                    np.arange(nrows + 1) * n, path=path)
        return out


def _join(path: tuple) -> str:
    return " / ".join(path) if path else "term"


def _label(term) -> str:
    """How an error path names an aggregate node."""
    kind = "gcn" if isinstance(term, T.GcnAgg) else "wmean"
    nbhd = f" in N({term.anchor})" if hasattr(term, "anchor") else ""
    return f"{kind}[{term.bound}{nbhd}]"


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

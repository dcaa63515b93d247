"""The Monte-Carlo engine both limit predictors run on, and its error bars.

Both limits mix over classes of rooted neighborhoods: the sparse limit
over the classes a census finds, the dense limit over one class, a lone
root, as there a neighbor is a fresh i.i.d. draw like any globally bound
node. McEngine is that mixture. The kept classes form one disjoint-union
CSR graph, variables bind to node ids on it, every subterm is a (rows,
samples, d) block, and the term runs through the evaluator's interpreter
(evaluate.Interpreter) and wmean_reduce.

A global aggregate mixes over the classes at its census radius, each a
fresh component, as one mean over all draws of mass q / draws each. One
whose body reads only its binder (reads_outer) is collapsed: computed
once per run on pools of the run's draws per depth and class. Otherwise
it is nested: per chunk of outer samples, every class's component with
fresh draws per outer sample joins the outer rows' components. An outer
sample gets max(inner_mc, P // outer samples) draws, P those of the run,
so an open term's top aggregate averages P draws; nested ratios keep an
O(1/inner_mc) bias. A scored nested aggregate (evaluate.plan) evaluates its
score's outer argument once per outer row and sample, the inner one and
the value on the class components alone, and reduces one score per
(outer sample, inner draw) pair.

Error bars come from rerunning the recursion on disjoint blocks of the
draws: for ratios of means this agrees with the delta method up to
O(1/m). Streams are keyed (seed, kind, "pool", depth, class) and (seed,
kind, "inner", depth, run tag, class, *chunks, chunk offset), so reruns
reproduce exactly and every outer sample gets independent inner draws.
A pool stream is sample-major: draw s of a class's node i is row
s * nodes + i, so a run skips the rows of the draws before its own
(graphs.skip_features) and draws only its own. Pools are drawn per chunk
of classes and dropped with it, so pools take memory by graphs.BLOCK
(elements, samples and d counted), not by the census (a collapsed
aggregate's one value row per class and draw still grows with it). An
aggregate whose body reads no feature on its union draws none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import graphs
from .canonical import canonical_code
from .errors import ConfigError, as_int
from .evaluate import (Interpreter, _checked_scores, local_aggregate, plan,
                       reads_outer, wmean_reduce)
from .registry import FunctionRegistry, fit_width
from .rng import stream
from .rw import walk_returns
from .terms import (Feature, GcnAgg, GlobalWMean, LocalWMean, Rw, Term,
                    contains_gcn, read_children)

DEFAULT_BLOCKS = 10

# the one radius-0 class: a lone root
_LONE = canonical_code(graphs.RootedGraph(adj=((),), roots=(0,), radius=0)).code


@dataclass(frozen=True)
class ControllerValue:
    """Point estimate with per-coordinate standard error.

    truncated_mass is populated by the sparse construction only: the census
    mass dropped before renormalization (including neighborhoods over the
    size cap).
    """

    estimate: np.ndarray
    stderr: np.ndarray
    mc_samples: int
    truncated_mass: Optional[float] = None

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=np.float64)
        err = np.asarray(self.stderr, dtype=np.float64)
        if est.shape != err.shape:
            raise ConfigError("estimate and stderr must have matching shapes")
        if est.ndim != 1:
            raise ConfigError("controller values are flat vectors")
        if np.any(err < 0) or not np.all(np.isfinite(err)):
            raise ConfigError("stderr must be finite and nonnegative")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be >= 1")
        if self.truncated_mass is not None and not (0.0 <= self.truncated_mass <= 1.0):
            raise ConfigError("truncated mass must lie in [0, 1]")
        est.flags.writeable = False
        err.flags.writeable = False
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "stderr", err)


def block_slices(total: int, blocks: int = DEFAULT_BLOCKS) -> list:
    """Split range(total) into up to `blocks` contiguous nonempty runs."""
    if total < 2:
        raise ConfigError("need at least 2 samples to form error blocks")
    nb = min(blocks, total)
    edges = np.linspace(0, total, nb + 1).astype(np.int64)
    return [slice(int(edges[i]), int(edges[i + 1])) for i in range(nb)]


def batch_stderr(block_values: np.ndarray) -> np.ndarray:
    """Stderr of the pooled estimate from per-block estimates, shape (B, d)."""
    vals = np.asarray(block_values, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[0] < 2:
        raise ConfigError("need a (blocks, dim) array with >= 2 blocks")
    return np.std(vals, axis=0, ddof=1) / np.sqrt(vals.shape[0])


class _Union(NamedTuple):
    """Disjoint components as one CSR graph; component c is nodes
    starts[c]:starts[c + 1]. feats is (nodes, samples, d) or None."""

    indptr: np.ndarray
    indices: np.ndarray
    starts: np.ndarray
    feats: Optional[np.ndarray] = None


def aggregation_depth(term: Term) -> int:
    """Nesting depth of structure-reading operators below a binder.

    This is the radius a decoded neighborhood class must have so the term
    evaluates on it exactly. It differs from reach in one place: a global
    binder does not reset the count, because its body may still read
    structure around outer variables, and the components decoded for those
    variables must extend far enough to serve it. Like reach, it counts
    only the children a node reads (terms.read_children).
    """
    if isinstance(term, Rw):
        return term.kmax
    inner = max(map(aggregation_depth, read_children(term)), default=0)
    return inner + 1 if isinstance(term, (LocalWMean, GcnAgg)) else inner


def _reads_features(term: Term) -> bool:
    """Whether an aggregate's body reads features on the union its binder
    lives on: a Feature outside every global aggregate that reads only its
    binder, as each of those runs on pools of its own."""
    def reads(t) -> bool:
        if isinstance(t, Feature):
            return True
        if isinstance(t, GlobalWMean) and not reads_outer(t):
            return False
        return any(map(reads, read_children(t)))

    return any(map(reads, read_children(term)))


def _pair_scores(pl, left: np.ndarray, right: np.ndarray, inner: int,
                 registry: FunctionRegistry, path: tuple) -> np.ndarray:
    """A scored aggregate's (classes * rows, samples * inner, 1) scores:
    left is its score's outer argument on (rows, samples, d), right the
    inner one on (classes, samples * inner, d), and the pair (class c,
    row r, sample i, draw j) scores left[r, i] against right[c, i * inner
    + j], one scalar each."""
    n, s, d = left.shape
    c, slots = right.shape[:2]
    full = (c, n, s, inner)
    i = np.arange(n)[:, None, None] * s + np.arange(s)[:, None]
    j = np.arange(c)[:, None, None, None] * slots + np.arange(slots).reshape(
        s, inner)
    scores = registry.call_pairs(
        pl.fn, left.reshape(-1, d), right.reshape(-1, d),
        np.broadcast_to(i, full).ravel(), np.broadcast_to(j, full).ravel())
    return _checked_scores(pl, scores.reshape(c * n, slots, 1), path,
                           registry)


def _offsets(counts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _layout(adjs) -> _Union:
    """The union of components given as adjacency rows."""
    starts = _offsets([len(adj) for adj in adjs])
    indices = [base + v for base, adj in zip(starts.tolist(), adjs)
               for row in adj for v in row]
    return _Union(_offsets([len(row) for adj in adjs for row in adj]),
                  np.array(indices, dtype=np.int64), starts)


def _pick(u: _Union, comps: np.ndarray) -> Tuple[_Union, np.ndarray]:
    """Components comps (ascending) of u alone, and their nodes' old ids."""
    if len(comps) == len(u.starts) - 1:
        return u, np.arange(len(u.indptr) - 1)
    size = u.starts[comps + 1] - u.starts[comps]
    keep = graphs.flat_ranges(u.starts[comps], size)
    deg = u.indptr[keep + 1] - u.indptr[keep]
    new = np.zeros(len(u.indptr) - 1, dtype=np.int64)
    new[keep] = np.arange(len(keep))
    edges = u.indices[graphs.flat_ranges(u.indptr[keep], deg)]
    return _Union(_offsets(deg), new[edges], _offsets(size)), keep


def _join(a: _Union, b: _Union, feats: np.ndarray) -> _Union:
    """b's components appended after a's, with the given features."""
    n = len(a.indptr) - 1
    return _Union(np.concatenate([a.indptr, b.indptr[1:] + a.indptr[-1]]),
                  np.concatenate([a.indices, b.indices + n]),
                  np.concatenate([a.starts, b.starts[1:] + n]), feats)


def _stack(blocks: list) -> np.ndarray:
    """blocks joined on the leading axis, copying only to be C-contiguous."""
    if len(blocks) == 1:
        return np.ascontiguousarray(blocks[0])
    return np.concatenate(blocks)


def _spread(weights: np.ndarray, draws: int) -> np.ndarray:
    """Each class weight split evenly over its draws, class by class."""
    return np.broadcast_to((weights / draws)[:, None],
                           (len(weights), draws)).reshape(-1)


def _mixture(blocks, rows: int, draws: int) -> Optional[np.ndarray]:
    """Class-major (classes * rows, samples * draws, d) blocks as one
    (classes * draws, rows, samples, d) array, or None for unread weights."""
    if blocks[0] is None:
        return None
    x = _stack(blocks)
    c, s, d = x.shape[0] // rows, x.shape[1] // draws, x.shape[2]
    return (x.reshape(c, rows, s, draws, d).transpose(0, 3, 1, 2, 4)
            .reshape(c * draws, rows, s, d))


class McEngine(Interpreter):
    """One term's value on a mixture of rooted classes, with error bars.

    A scope is (bindings, depth, chunks): the union the variables live in
    with each one's node ids per block row, the nesting depth of
    aggregates around the node, and the outer-sample offsets of the nested
    chunks enclosing it. Radius 0 has one class, the lone root; a subclass
    supplies _census(radius), the kept classes at radius >= 1.
    """

    kind = ""  # first stream key after the seed: "dense" or "sparse"

    def __init__(self, term: Term, registry: FunctionRegistry,
                 dist: graphs.FeatureDist, draw: Callable, mc_samples: int,
                 seed: int, inner_mc: int):
        self.term = term
        self.registry = registry
        self.dist = dist
        self._draw = draw
        self.d = graphs.feature_dim(dist)
        self.mc = as_int(mc_samples, "mc_samples", 2)
        self.seed = seed
        self.inner_mc = as_int(inner_mc, "inner_mc", 2)
        # pool key -> [its stream, its starting state, the row it stands at]
        self._streams: Dict[tuple, list] = {}
        # radius -> (union, codes, weights, dropped mass) of the kept classes
        self._kept: Dict[int, tuple] = {}
        # per-run state: the first selected draw, their count and the run's tag
        self._start = 0
        self._m = self.mc
        self._tag = "full"
        self._cache: Dict[tuple, np.ndarray] = {}

    def _radius(self, term) -> int:
        """The census radius a global aggregate reads. Degree-normalized
        sums read the bound node's degree, one ring past the body."""
        return aggregation_depth(term) + (1 if contains_gcn(term) else 0)

    def _key(self, code: bytes) -> tuple:
        """A class's part of the stream keys of its draws."""
        return (code.hex(),)

    def _types(self, radius: int) -> tuple:
        """Kept classes as (union, codes, weights) plus the dropped mass."""
        if radius not in self._kept:
            self._kept[radius] = ((_layout([((),)]), (_LONE,), np.ones(1), 0.0)
                                  if radius == 0 else self._census(radius))
        return self._kept[radius]

    def _draws(self, count: int, slots: int, *key) -> np.ndarray:
        """(count, slots, d) draws from the stream (seed, kind, *key)."""
        rng = stream(self.seed, self.kind, *key)
        return self._draw(self.dist, count * slots, rng).reshape(
            count, slots, self.d)

    def _pool(self, depth: int, code: bytes, count: int) -> np.ndarray:
        """A class's (count, selected draws, d) pool at a depth, read from
        its sample-major stream: the rows of the draws before the run's
        are skipped, not drawn. Only the stream, its starting state and
        the row it stands at are kept: making a stream costs more than
        resetting one, and consecutive blocks need neither."""
        key = ("pool", depth, *self._key(code))
        got = self._streams.get(key)
        if got is None:
            rng = stream(self.seed, self.kind, *key)
            got = self._streams[key] = [rng, rng.bit_generator.state, 0]
        rng, start, at = got
        if at != self._start * count:
            rng.bit_generator.state = start
            graphs.skip_features(self.dist, self._start * count, rng)
        rows = self._draw(self.dist, self._m * count, rng)
        got[2] = (self._start + self._m) * count
        return rows.reshape(self._m, count, self.d).transpose(1, 0, 2)

    def _weight_arg(self, term, *args) -> Optional[np.ndarray]:
        """The weight argument, or None under the map "one", which never
        reads it (so its inner draws are never made)."""
        if term.weight_map == "one":
            return None
        return self._eval(term.weight_arg, *args)

    def _feature(self, term, scope: tuple) -> np.ndarray:
        g, frame = scope[0]
        ids = frame[term.var]
        # one node (the lone root of every dense row) reads a view, not a copy
        return g.feats[ids[0]:ids[0] + 1] if len(ids) == 1 else g.feats[ids]

    def _rw(self, term, scope: tuple, shape: tuple) -> np.ndarray:
        g, frame = scope[0]
        vec = walk_returns(g.indptr, g.indices, frame[term.var], term.kmax)
        return np.broadcast_to(fit_width(vec, self.d)[:, None], shape)

    def _local(self, term, scope: tuple, shape: tuple,
               path: tuple) -> np.ndarray:
        (g, frame), depth, chunks = scope
        return local_aggregate(
            term, frame, np.empty(shape), g.indptr, g.indices,
            lambda t, child, sh, p: self._eval(
                t, ((g, child), depth + 1, chunks), sh, p),
            self.registry, path)

    def _global(self, term, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        if reads_outer(term):
            return self._nested(term, scope, shape, path)
        depth = scope[1]
        key = (term, depth)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._collapsed(term, depth, path)
        return np.broadcast_to(cached, shape)

    def _collapsed(self, term, depth: int, path: tuple) -> np.ndarray:
        """One row per class, a chunk of classes at a time, on pools."""
        m = self._m
        u, codes, weights, _ = self._types(self._radius(term))
        sizes = np.diff(u.starts)
        reads = _reads_features(term)
        vals, etas = [], []
        for a, b in graphs.cost_blocks(sizes * (m * self.d), graphs.BLOCK):
            g = _pick(u, np.arange(a, b))[0]
            # a chunk draws its classes' pools and drops them with g, so no
            # pool outlives its chunk
            if reads:
                g = g._replace(feats=_stack([
                    self._pool(depth, codes[c], sizes[c])
                    for c in range(a, b)]))
            args = (((g, {term.bound: g.starts[:-1]}), depth + 1, ()),
                    (b - a, m, self.d), path)
            vals.append(self._eval(term.value, *args))
            etas.append(self._weight_arg(term, *args))
        # rebinding frees the per-chunk blocks before the reduction
        vals, etas = _mixture(vals, 1, m), _mixture(etas, 1, m)
        return wmean_reduce(vals, etas, term.weight_map, self.registry, None,
                            _spread(weights, m), path=path)[0, 0]

    def _nested(self, term, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        """Per chunk of outer samples and rows, every class's fresh
        component joins the rows' components, bindings repeated per class.
        A scored aggregate (evaluate.plan) joins nothing: its score's outer
        argument runs once per row and sample on the rows' components, its
        value and inner argument on the classes' alone, and one score per
        (outer sample, inner draw) pair weighs the value."""
        (g, frame), depth, chunks = scope
        d = self.d
        u, codes, weights, _ = self._types(self._radius(term))
        sizes = np.diff(u.starts)
        pl = plan(term, self.registry)
        scored = pl.kind == "scored"
        reads = _reads_features(term)
        # outside nested chunks an aggregate has 1 or P outer samples; inside
        # one, P * inner_mc or more
        inner = self.inner_mc if chunks else max(self.inner_mc,
                                                 self._m // shape[1])
        mass = _spread(weights, inner)
        out, step = np.empty(shape), max(1, graphs.BLOCK // (inner * d))
        for lo in range(0, shape[1], step):
            hi = min(shape[1], lo + step)
            s, slots = hi - lo, (hi - lo) * inner
            cost = slots * d  # elements per node or row
            tail = chunks + (lo,)
            per_row = np.full(shape[0], len(codes) * cost)
            for r0, r1 in graphs.cost_blocks(per_row, graphs.BLOCK):
                n = r1 - r0
                nodes = np.concatenate([arr[r0:r1] for arr in frame.values()])
                part, keep = _pick(g, np.unique(
                    np.searchsorted(g.starts, nodes, side="right") - 1))
                # a scored aggregate's classes form a union of their own
                k = 0 if scored else len(keep)
                outer = g.feats[keep, lo:hi] if reads else None
                bound = {v: np.searchsorted(keep, arr[r0:r1])
                         for v, arr in frame.items()}
                if scored:
                    left = self._eval(
                        pl.a, ((part._replace(feats=outer), bound), depth + 1,
                               tail), (n, s, d), pl.score_path(path))
                vals, etas = [], []
                for a, b in graphs.cost_blocks((sizes + n) * cost, graphs.BLOCK):
                    comp = _pick(u, np.arange(a, b))[0]
                    roots = k + comp.starts[:-1]
                    feats = None
                    if reads:
                        feats = np.empty((roots[-1] + sizes[b - 1], slots, d))
                        if not scored:
                            # an outer sample's features repeat over its
                            # inner draws
                            feats[:k].reshape(k, s, inner, d)[...] = \
                                outer[:, :, None]
                        for c, at in zip(range(a, b), roots):
                            feats[at:at + sizes[c]] = self._draws(
                                sizes[c], slots, "inner", depth, self._tag,
                                *self._key(codes[c]), *tail)
                    if scored:
                        args = (((comp._replace(feats=feats),
                                  {term.bound: roots}), depth + 1, tail),
                                (b - a, slots, d))
                        vals.append(self._eval(term.value, *args, path))
                        etas.append(_pair_scores(
                            pl, left, self._eval(pl.b, *args,
                                                 pl.score_path(path)),
                            inner, self.registry, path))
                    else:
                        sub = {v: np.tile(arr, b - a)
                               for v, arr in bound.items()}
                        sub[term.bound] = np.repeat(roots, n)
                        args = (((_join(part, comp, feats), sub), depth + 1,
                                 tail), ((b - a) * n, slots, d), path)
                        vals.append(self._eval(term.value, *args))
                        etas.append(self._weight_arg(term, *args))
                vals = _mixture(vals, 1 if scored else n, inner)
                etas = _mixture(etas, n, inner)
                out[r0:r1, lo:hi] = wmean_reduce(
                    vals, etas, term.weight_map, self.registry, None, mass,
                    path=path)
        return out

    def run(self, sel: slice, tag, top: tuple) -> np.ndarray:
        """One pass of the recursion on the draws sel, tagged for reruns."""
        draws = range(self.mc)[sel]
        self._start, self._m = draws.start, len(draws)
        self._tag = tag
        self._cache = {}
        return self._eval(self.term, (top, 0, ()), (1, 1, self.d),
                          ())[0, 0].copy()

    def estimate(self, env: Optional[Dict[str, np.ndarray]] = None
                 ) -> ControllerValue:
        """The estimate with error bars. env gives each free variable's
        (d,) feature vector, held by a one-node component of its own."""
        env = env or {}
        feats = np.array(list(env.values()), dtype=np.float64)
        top = (_layout([((),)] * len(env))._replace(
            feats=feats.reshape(len(env), 1, self.d)),
            {v: np.array([i]) for i, v in enumerate(env)})
        full = self.run(slice(None), "full", top)
        blocks = [self.run(sl, i, top)
                  for i, sl in enumerate(block_slices(self.mc))]
        return ControllerValue(estimate=full,
                               stderr=batch_stderr(np.stack(blocks)),
                               mc_samples=self.mc,
                               truncated_mass=self.truncated_mass())

    def truncated_mass(self) -> Optional[float]:
        return None

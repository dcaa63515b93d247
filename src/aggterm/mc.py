"""The Monte-Carlo engine both limit predictors run on, and its error bars.

Both limits mix over classes of rooted neighborhoods: the sparse limit
over the classes a census finds, the dense limit over one class, a lone
root, as there a neighbor is a fresh i.i.d. draw like any globally bound
node. McEngine is that mixture. The kept classes form one disjoint-union
CSR graph, variables bind to node ids on it, every subterm is a (rows,
samples, d) block, and the term runs through the evaluator's interpreter
(evaluate.Interpreter). Its weighted means are the evaluator's: local
aggregates reduce through evaluate.wmean_reduce, global ones through
evaluate._Mean, which takes its rows chunk by chunk.

A global aggregate mixes over the classes at its census radius, each a
fresh component, as one mean over all draws of mass q / draws each. One
whose body reads only its binder (its node's outer fact) is collapsed: computed
once per estimate on pools of the m draws per depth and class. Otherwise
it is nested: per chunk of outer samples, every class's component with
fresh draws per outer sample joins the outer rows' components. An outer
sample gets inner_mc draws, and an open term's top aggregate, whose one
outer sample is the whole run, P = max(inner_mc, m); nested ratios keep
an O(1/inner_mc) bias. A scored nested aggregate (evaluate.plan)
evaluates its score's outer argument once per outer row and sample, the
inner one and the value on the class components alone, and reduces one
score per (outer sample, inner draw) pair.

Error bars are batch means: block b owns slice b of the draws, and the
estimate on its draws alone stands in for an independent run (for ratios
of means this agrees with the delta method up to O(1/m)). One pass gives
the full estimate and every block's. A per-run aggregate (a collapsed
one, or an open term's top one) returns its full value and one value per
block, each the mean over its draws; a scope records each sample's block
(None in the full run), and a consumer reads its block's value. A body
that reads no per-run value gives a draw the same rows in every run, so
it is evaluated once and its rows feed the full mean and, sliced, each
block's; any other body is evaluated once more, each draw reading its
block's values. Streams are keyed (seed, kind, "pool", depth, class) and
(seed, kind, "inner", depth, class, *chunks, chunk offset), offsets of
absolute outer samples, so both evaluations read the same draws and every
outer sample gets independent inner draws. A pool stream is sample-major:
draw s of a class's node i is row s * nodes + i.

Pools are drawn per chunk of classes and dropped with it, and every
aggregate reduces a chunk's (class, draw) rows into running sums (_Mean)
before the next chunk is drawn, so an estimate takes memory by
graphs.BLOCK (elements, samples and d counted), not by the census, and
reads each pool row once per aggregate. An aggregate whose body reads no
feature on its union draws none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import graphs
from .canonical import canonical_code
from .errors import ConfigError, as_int
from .evaluate import (Interpreter, _body, _checked_scores, _Mean,
                       local_aggregate, plan)
from .registry import FunctionRegistry, fit_width
from .rng import stream
from .rw import walk_returns
from .terms import GlobalWMean, Term, read_children

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
    if not n:
        return b._replace(feats=feats)
    return _Union(np.concatenate([a.indptr, b.indptr[1:] + a.indptr[-1]]),
                  np.concatenate([a.indices, b.indices + n]),
                  np.concatenate([a.starts, b.starts[1:] + n]), feats)


def _spread(weights: np.ndarray, draws: int) -> np.ndarray:
    """Each class weight split evenly over its draws, class by class."""
    return np.broadcast_to((weights / draws)[:, None],
                           (len(weights), draws)).reshape(-1)


def _mixture(x: np.ndarray, rows: int, draws: int) -> np.ndarray:
    """A class-major (classes * rows, samples * draws, d) block as one
    (classes * draws, rows, samples, d) array."""
    c, s, d = x.shape[0] // rows, x.shape[1] // draws, x.shape[2]
    return (x.reshape(c, rows, s, draws, d).transpose(0, 3, 1, 2, 4)
            .reshape(c * draws, rows, s, d))


class McEngine(Interpreter):
    """One term's value on a mixture of rooted classes, with error bars.

    A scope is (bindings, depth, chunks, blocks): the union the variables
    live in with each one's node ids per row, the nesting depth of
    aggregates around the node, the outer-sample offsets of the nested
    chunks enclosing it, and each sample's error block (None in the full
    run). Radius 0 has one class, the lone root; a subclass supplies
    _census(radius), the kept classes at radius >= 1.
    """

    kind = ""  # first stream key after the seed: "dense" or "sparse"
    _globals: tuple = (GlobalWMean,)  # the node kinds _global takes

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
        self._nblocks = len(block_slices(self.mc))
        # radius -> (union, codes, weights, dropped mass) of the kept classes
        self._kept: Dict[int, tuple] = {}
        # (per-run aggregate, depth) -> its full value and block values
        self._cache: Dict[tuple, tuple] = {}

    def _radius(self, term) -> int:
        """The census radius a global aggregate reads. Degree-normalized
        sums read the bound node's degree, one ring past the body."""
        return term.depth + (1 if term.gcn else 0)

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
        """A class's (count, m, d) pool at a depth: the first m * count
        draws of its sample-major stream (seed, kind, "pool", depth, class),
        drawn afresh at each read."""
        return self._draws(self.mc, count, "pool", depth,
                           *self._key(code)).transpose(1, 0, 2)

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
        (g, frame), depth, chunks, blocks = scope
        return local_aggregate(
            term, frame, np.empty(shape), g.indptr, g.indices,
            lambda t, child, sh, p: self._eval(
                t, ((g, child), depth + 1, chunks, blocks), sh, p),
            self.registry, path)

    def _global(self, term, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        depth, blocks = scope[1], scope[3]
        if depth and term.outer:
            return self._nested(term, scope, shape, path)
        key = (term, depth)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = self._run(term, scope, path)
        full, per_block = got
        return np.broadcast_to(full if blocks is None else per_block[blocks],
                               shape)

    def _run(self, term, scope: tuple, path: tuple) -> tuple:
        """A per-run aggregate's full value and its block values, in one
        pass: a collapsed one on pools of the m draws, or an open term's
        top aggregate on P = max(inner_mc, m) inner draws. Block b owns
        slice b of the draws. A body that reads no per-run value is
        evaluated once, and its rows feed the full mean and, sliced, each
        block's; any other is evaluated again with every draw reading its
        block's values, for the block means."""
        (g, frame), depth = scope[:2]
        top = term.outer
        draws = max(self.inner_mc, self.mc) if top else self.mc
        if not top:
            g, frame = _layout([]), {}
        slices = block_slices(draws, self._nblocks)
        full = _Mean(term.weight_map, self.registry)
        parts = [_Mean(term.weight_map, self.registry) for _ in slices]
        whole = [(full, slice(None), draws)]
        split = [(mean, sl, sl.stop - sl.start)
                 for mean, sl in zip(parts, slices)]
        # the body reads a per-run value: that of a collapsed aggregate
        if not term.solo.isdisjoint(self._globals):
            ids = np.repeat(np.arange(len(slices)),
                            [sl.stop - sl.start for sl in slices])
            contexts = [(None, whole), (ids, split)]
        else:
            contexts = [(None, whole + split)]
        self._classes(term, ((g, frame), depth, (0,) if top else ()), 1,
                      slice(0, 1), draws, None, contexts, path)
        return (full.value(path)[0, 0],
                np.stack([mean.value(path)[0, 0] for mean in parts]))

    def _nested(self, term, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        """Per chunk of outer samples and rows, one mean over every class
        (_classes), inner_mc fresh draws per outer sample."""
        (g, frame), depth, chunks, blocks = scope
        inner = self.inner_mc
        pl = plan(term, self.registry)
        classes = len(self._types(self._radius(term))[1])
        out, step = np.empty(shape), max(1, graphs.BLOCK // (inner * self.d))
        for lo in range(0, shape[1], step):
            hi = min(shape[1], lo + step)
            # an inner draw reads its outer sample's block
            ids = None if blocks is None else np.repeat(blocks[lo:hi], inner)
            per_row = np.full(shape[0], classes * (hi - lo) * inner * self.d)
            for r0, r1 in graphs.cost_blocks(per_row, graphs.BLOCK):
                mean = _Mean(term.weight_map, self.registry)
                rows = {v: arr[r0:r1] for v, arr in frame.items()}
                self._classes(term, ((g, rows), depth, chunks + (lo,)),
                              r1 - r0, slice(lo, hi), inner,
                              pl if pl.kind == "scored" else None,
                              [(ids, [(mean, slice(None), inner)])], path)
                out[r0:r1, lo:hi] = mean.value(path)
        return out

    def _classes(self, term, scope: tuple, rows: int, samples: slice,
                 inner: int, pl, contexts: list, path: tuple) -> None:
        """Fresh components of every class, a chunk of classes at a time,
        joined after those of the rows the scope (bindings, depth, chunks)
        binds, whose features repeat over each of their samples' inner
        draws. A collapsed aggregate binds no rows and reads pools; the
        others read draws keyed by their outer samples' offsets. The body
        runs once per context (blocks, sinks): blocks gives each draw's
        error block or is None, and each sink (mean, draws, draws per
        class) takes the rows of its slice of the draws. A scored
        aggregate (pl, evaluate.plan) joins nothing: its score's outer
        argument runs once per row and sample on the rows' components, its
        value and inner argument on the classes' alone, and one score per
        (outer sample, inner draw) pair weighs the value."""
        (g, frame), depth, tail = scope
        d, s = self.d, samples.stop - samples.start
        slots = s * inner
        u, codes, weights, _ = self._types(self._radius(term))
        sizes = np.diff(u.starts)
        pooled = not term.outer
        # features on the union the binder lives on: the global aggregates
        # below that read only their binder run on pools of their own
        reads = any(c.feeds for c in read_children(term))
        nodes = np.concatenate([np.zeros(0, np.int64), *frame.values()])
        part, keep = _pick(g, np.unique(
            np.searchsorted(g.starts, nodes, side="right") - 1))
        bound = {v: np.searchsorted(keep, arr) for v, arr in frame.items()}
        outer = g.feats[keep, samples] if reads and len(keep) else None
        k = 0 if pl else len(keep)
        lefts = [self._eval(
            pl.a, ((part._replace(feats=outer), bound), depth + 1, tail,
                   None if ids is None else ids[::inner]),
            (rows, s, d), pl.score_path(path)) if pl else None
            for ids, _ in contexts]
        for a, b in graphs.cost_blocks((sizes + rows) * (slots * d),
                                       graphs.BLOCK):
            comp = _pick(u, np.arange(a, b))[0]
            roots = k + comp.starts[:-1]
            feats = None
            if reads:
                feats = np.empty((roots[-1] + sizes[b - 1], slots, d))
                if k:
                    feats[:k].reshape(k, s, inner, d)[...] = outer[:, :, None]
                for c, at in zip(range(a, b), roots):
                    feats[at:at + sizes[c]] = (
                        self._pool(depth, codes[c], sizes[c]) if pooled
                        else self._draws(sizes[c], slots, "inner", depth,
                                         *self._key(codes[c]), *tail))
            for (ids, sinks), left in zip(contexts, lefts):
                if pl:
                    args = (((comp._replace(feats=feats),
                              {term.bound: roots}), depth + 1, tail, ids),
                            (b - a, slots, d))
                    vals = self._eval(term.value, *args, path)
                    etas = _pair_scores(
                        pl, left, self._eval(pl.b, *args,
                                             pl.score_path(path)),
                        inner, self.registry, path)
                else:
                    sub = {v: np.tile(arr, b - a) for v, arr in bound.items()}
                    sub[term.bound] = np.repeat(roots, rows)
                    args = (((_join(part, comp, feats), sub), depth + 1,
                             tail, ids), ((b - a) * rows, slots, d), path)
                    vals, etas = _body(term, self._eval, *args)
                for mean, sl, count in sinks:
                    mean.add(_mixture(vals[:, sl], 1 if pl else rows, count),
                             None if etas is None else
                             _mixture(etas[:, sl], rows, count),
                             _spread(weights[a:b], count))
                # freed before the next context's body runs
                del vals, etas

    def estimate(self, env: Optional[Dict[str, np.ndarray]] = None
                 ) -> ControllerValue:
        """The estimate with error bars: the recursion once at one sample,
        the full run, and once at one sample per block, where sample b
        reads block b's values of the per-run aggregates, all computed in
        the first. env gives each free variable's (d,) feature vector,
        held by a one-node component of its own."""
        env = env or {}
        nb, d = self._nblocks, self.d
        feats = np.array(list(env.values()), dtype=np.float64).reshape(
            len(env), 1, d)
        g = _layout([((),)] * len(env))
        frame = {v: np.array([i]) for i, v in enumerate(env)}

        def run(samples: int, blocks) -> np.ndarray:
            top = g._replace(
                feats=np.broadcast_to(feats, (len(env), samples, d)))
            return self._eval(self.term, ((top, frame), 0, (), blocks),
                              (1, samples, d), ())[0]

        self._cache = {}
        full, blocks = run(1, None), run(nb, np.arange(nb))
        return ControllerValue(estimate=full[0].copy(),
                               stderr=batch_stderr(blocks),
                               mc_samples=self.mc,
                               truncated_mass=self.truncated_mass())

    def truncated_mass(self) -> Optional[float]:
        return None

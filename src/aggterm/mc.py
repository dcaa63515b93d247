"""The Monte-Carlo engine both limit predictors run on, and its error bars.

A global binder lands far from every node bound before it, so its
aggregate is a mean over fresh components: a lone root with fresh feature
draws at radius 0 (a body that reads no structure, and every dense
aggregate: there a neighbor is a fresh draw like any globally bound node),
or rooted balls sampled from graphs, one draw each, at radius >= 1. The
components form one disjoint-union CSR graph, variables bind to node ids
on it, every subterm is a (rows, samples, d) block, and the term runs
through the evaluator's interpreter (evaluate.Interpreter), whose
weighted means it shares: evaluate.wmean_reduce for local aggregates,
evaluate._Mean, fed chunk by chunk, for global ones.

A global aggregate whose body reads only its binder (its node's outer
fact) is collapsed: computed once per estimate on the lone root's pool
of m draws per depth, or on every block's balls (a subclass supplies
_balls(radius, block)). Otherwise it is nested: per chunk of outer
samples, inner_mc draws of the lone root per outer sample, or inner_mc
balls picked from the enclosing block's (shared by the chunk's rows),
join the outer rows' components. An open term's top aggregate, whose one
outer sample is the whole run, takes P = max(inner_mc, m) draws; nested
ratios keep an O(1/inner_mc) bias. A scored nested aggregate
(evaluate.plan) evaluates its score's outer argument once per outer row
and sample, the inner one and the value on the fresh components alone,
and reduces one score per (outer sample, inner draw) pair.

Error bars are batch means: block b owns slice b of the lone root's
draws, or its own graphs, its slice of the balls and every ball picked
under them, and its estimate stands in for an independent run (for
ratios of means this agrees with the delta method up to O(1/m)). One pass
gives the full estimate and every block's. A per-run aggregate (a
collapsed one, or an open term's top one) returns its full value and one
value per block; a scope records each sample's block (None in the full
run), and a consumer reads its block's value. A body that reads no
per-run value is evaluated once, its rows feeding the full mean and,
sliced, each block's; any other is evaluated once more, each draw reading
its block's values. Streams are keyed by depth and, below the top, by
the offsets of absolute outer samples, so both evaluations read the same
draws and every chunk of outer samples gets its own. Components are drawn
and reduced into running sums a chunk at a time, so beyond the sampled
balls an estimate takes memory by graphs.BLOCK (elements, samples and d
counted); an aggregate whose body reads no feature draws none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from . import graphs
from .errors import ConfigError, as_int
from .evaluate import (Interpreter, _body, _checked_scores, _Mean,
                       local_aggregate, plan)
from .registry import FunctionRegistry, fit_width
from .rng import stream
from .rw import walk_returns
from .terms import GlobalWMean, Term, read_children

DEFAULT_BLOCKS = 10

# the canonical code of the one radius-0 ball, a lone root
_LONE = bytes.fromhex("524e31010001")


@dataclass(frozen=True)
class ControllerValue:
    """Point estimate with per-coordinate standard error. truncated_mass
    is None on dense results and 0.0 on sparse ones, whose balls are never
    cut; readers such as bench/tracing.py still take it."""

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
    starts[c]:starts[c + 1], its root first. feats is (nodes, samples, d)
    or None."""

    indptr: np.ndarray
    indices: np.ndarray
    starts: np.ndarray
    feats: Optional[np.ndarray] = None


def _pair_scores(pl, left: np.ndarray, right: np.ndarray, inner: int,
                 registry: FunctionRegistry, path: tuple) -> np.ndarray:
    """A scored aggregate's (components * rows, samples * inner, 1)
    scores: left is its score's outer argument on (rows, samples, d),
    right the inner one on (components, samples * inner, d), and the pair
    (component c, row r, sample i, draw j) scores left[r, i] against
    right[c, i * inner + j], one scalar each."""
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


_LONE_ROOT = _layout([((),)])


def _pick(u: _Union, comps: np.ndarray):
    """Components comps of u, in that order and repeats allowed, as a
    union of their own, and their nodes' old ids."""
    if len(comps) == len(u.starts) - 1 and np.all(np.diff(comps) == 1):
        return u, np.arange(len(u.indptr) - 1)
    size = u.starts[comps + 1] - u.starts[comps]
    keep = graphs.flat_ranges(u.starts[comps], size)
    starts = _offsets(size)
    deg = u.indptr[keep + 1] - u.indptr[keep]
    shift = np.repeat(np.repeat(starts[:-1] - u.starts[comps], size), deg)
    return _Union(_offsets(deg), u.indices[
        graphs.flat_ranges(u.indptr[keep], deg)] + shift, starts), keep


def _join(a: _Union, b: _Union, feats: np.ndarray) -> _Union:
    """b's components appended after a's, with the given features."""
    n = len(a.indptr) - 1
    if not n:
        return b._replace(feats=feats)
    return _Union(np.concatenate([a.indptr, b.indptr[1:] + a.indptr[-1]]),
                  np.concatenate([a.indices, b.indices + n]),
                  np.concatenate([a.starts, b.starts[1:] + n]), feats)


def _mixture(x: np.ndarray, rows: int, draws: int) -> np.ndarray:
    """A component-major (components * rows, samples * draws, d) block as
    one (components * draws, rows, samples, d) array."""
    c, s, d = x.shape[0] // rows, x.shape[1] // draws, x.shape[2]
    return (x.reshape(c, rows, s, draws, d).transpose(0, 3, 1, 2, 4)
            .reshape(c * draws, rows, s, d))


class McEngine(Interpreter):
    """One term's value on fresh components, with error bars.

    A scope is (bindings, depth, chunks, blocks): the union the variables
    live in with each one's node ids per row, the nesting depth of
    aggregates around the node, the outer-sample offsets of the nested
    chunks enclosing it (on balls, the enclosing block first), and each
    sample's error block (None in the full run). Radius 0 is the lone
    root; a subclass supplies _balls(radius, block), block's balls at
    radius >= 1.
    """

    kind = ""  # first stream key after the seed: "dense" or "sparse"
    _globals: tuple = (GlobalWMean,)  # the node kinds _global takes
    _lone: tuple = (_LONE.hex(),)  # the lone root's part of its stream keys
    truncated_mass: Optional[float] = None

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
        # (per-run aggregate, depth) -> its full value and block values
        self._cache: Dict[tuple, tuple] = {}

    def _radius(self, term) -> int:
        """The ball radius a global aggregate reads. Degree-normalized
        sums read the bound node's degree, one ring past the body."""
        return term.depth + (1 if term.gcn else 0)

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
        pass: a collapsed one on the lone root's pool of m draws or on
        every block's balls, an open term's top one on P = max(inner_mc,
        m) inner draws. A body that reads a per-run value is evaluated
        twice: for the full mean, and with each draw reading its block's
        values for the block means (module docstring)."""
        (g, frame), depth = scope[:2]
        top, radius = term.outer, self._radius(term)
        full = _Mean(term.weight_map, self.registry)
        parts = [_Mean(term.weight_map, self.registry)
                 for _ in range(self._nblocks)]
        # the body reads a per-run value: that of a collapsed aggregate
        rerun = not term.solo.isdisjoint(self._globals)
        if radius:
            for b, mean in enumerate(parts):
                sinks = [(full, slice(None), 1), (mean, slice(None), 1)]
                self._fresh(
                    term, ((_layout([]), {}), depth, (b,)), 1, slice(0, 1),
                    (self._balls(radius, b), 1, ("balls", depth, b)), None,
                    [(None, sinks[:1]), (np.array([b]), sinks[1:])]
                    if rerun else [(None, sinks)], path)
        else:
            draws = max(self.inner_mc, self.mc) if top else self.mc
            if not top:
                g, frame = _layout([]), {}
            slices = block_slices(draws, self._nblocks)
            whole = [(full, slice(None), draws)]
            split = [(mean, sl, sl.stop - sl.start)
                     for mean, sl in zip(parts, slices)]
            if rerun:
                ids = np.repeat(np.arange(len(slices)),
                                [sl.stop - sl.start for sl in slices])
                contexts = [(None, whole), (ids, split)]
            else:
                contexts = [(None, whole + split)]
            key = (("inner", depth, *self._lone, 0) if top
                   else ("pool", depth, *self._lone))
            self._fresh(term, ((g, frame), depth, (0,) if top else ()), 1,
                        slice(0, 1), (_LONE_ROOT, draws, key), None,
                        contexts, path)
        return (full.value(path)[0, 0],
                np.stack([mean.value(path)[0, 0] for mean in parts]))

    def _nested(self, term, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        """Per chunk of outer samples and rows, one mean over fresh
        components (_fresh): inner_mc draws of the lone root per outer
        sample, or inner_mc balls of the enclosing block, one draw each."""
        (g, frame), depth, chunks, blocks = scope
        inner, radius = self.inner_mc, self._radius(term)
        pl = plan(term, self.registry)
        out, step = np.empty(shape), max(1, graphs.BLOCK // (inner * self.d))
        for lo in range(0, shape[1], step):
            hi = min(shape[1], lo + step)
            tail = chunks + (lo,)
            if radius:
                # below balls, chunks starts with the enclosing block
                balls = self._balls(radius, chunks[0])
                pick = stream(self.seed, self.kind, "pick", depth,
                              *tail).integers(0, len(balls.starts) - 1, inner)
                src = (_pick(balls, pick)[0], 1, ("inner", depth, *tail))
            else:
                src = (_LONE_ROOT, inner, ("inner", depth, *self._lone, *tail))
            # an inner draw reads its outer sample's block
            ids = None if blocks is None else np.repeat(blocks[lo:hi], src[1])
            per_row = np.full(shape[0], (hi - lo) * inner * self.d)
            for r0, r1 in graphs.cost_blocks(per_row, graphs.BLOCK):
                mean = _Mean(term.weight_map, self.registry)
                rows = {v: arr[r0:r1] for v, arr in frame.items()}
                self._fresh(term, ((g, rows), depth, tail), r1 - r0,
                            slice(lo, hi), src,
                            pl if pl.kind == "scored" else None,
                            [(ids, [(mean, slice(None), src[1])])], path)
                out[r0:r1, lo:hi] = mean.value(path)
        return out

    def _fresh(self, term, scope: tuple, rows: int, samples: slice,
               src: tuple, pl, contexts: list, path: tuple) -> None:
        """src's components (union, draws, key), a chunk at a time, each
        with `draws` feature draws per outer sample read in order from the
        stream (seed, kind, *key), joined after those of the rows the scope
        (bindings, depth, chunks) binds, whose features repeat over each of
        their samples' draws. The body runs once per context (blocks,
        sinks): blocks gives each draw's error block or is None, and each
        sink (mean, draws, draws per component) takes its slice of the
        draws. A scored aggregate (pl, evaluate.plan) joins nothing: its
        score's outer argument runs on the rows' components, its value and
        inner argument on the fresh ones alone (module docstring)."""
        (g, frame), depth, tail = scope
        u, inner, key = src
        d, s = self.d, samples.stop - samples.start
        slots = s * inner
        sizes = np.diff(u.starts)
        # features on the union the binder lives on: the global aggregates
        # below that read only their binder run on pools of their own
        reads = any(c.feeds for c in read_children(term))
        rng = stream(self.seed, self.kind, *key) if reads else None
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
                fresh = comp.starts[-1]
                feats = np.empty((k + fresh, slots, d))
                if k:
                    feats[:k].reshape(k, s, inner, d)[...] = outer[:, :, None]
                feats[k:] = self._draw(self.dist, fresh * slots, rng).reshape(
                    fresh, slots, d)
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
                    # each (component, draw) row weighs 1 / count
                    mean.add(_mixture(vals[:, sl], 1 if pl else rows, count),
                             None if etas is None else
                             _mixture(etas[:, sl], rows, count),
                             np.full((b - a) * count, 1.0 / count))
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
                               truncated_mass=self.truncated_mass)

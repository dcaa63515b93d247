"""Limit prediction for aggregation terms on bounded-degree graph models.

When expected degrees stay bounded (edge probability K/n, preferential
attachment), the ball around a uniformly random node converges in
distribution to an ensemble of finite rooted graphs, and the large-n value
of a closed term is a functional of that ensemble. Two facts drive the
construction here. First, local aggregates, degree-normalized sums, and
walk returns are determined by the ball around their anchor, so they can
be computed exactly on a decoded neighborhood class. Second, a global
binder picks a node that lands far from every previously pinned node with
probability tending to one, so its aggregate mixes over neighborhood
classes with their census proportions, each class contributing a disjoint
fresh component.

Evaluation therefore runs on a growing disjoint union: every global binder
in scope contributes one decoded component with its own feature draws, and
bound variables point at nodes of the union. The census behind each global
is estimated once per required radius (see aggregation_depth below) and
truncated to the heaviest classes covering at least 1 - eps of the mass,
renormalized; the dropped mass is reported on the result. Expectations
over feature draws are Monte-Carlo means with the same collapsed/nested
split as the dense construction: a global whose body reads only its own
binder uses one shared pool of mc_samples draws per nesting depth and
decoded class (memory scales with class size times mc_samples), while a
body that also reads outer variables gets a smaller nested pool of
inner_mc draws per outer sample, at O(1/inner_mc) ratio bias. Error bars
rerun the recursion on disjoint blocks of the draws (see mc.py); census
sampling noise is not included, so size the census budget generously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .census import (DEFAULT_SIZE_CAP, CensusTable, is_sparse_class,
                     neighborhood_census)
from .errors import ConfigError, EvaluationError
from .graphs import FeatureDist, draw_features, feature_dim
from .mc import ControllerValue, batch_stderr, block_slices
from .registry import FunctionRegistry, default_registry
from .rng import stream
from .rw import walk_returns
from .terms import (Apply, Const, Feature, GcnAgg, GlobalWMean, LocalWMean,
                    Rw, Term, contains_gcn, free_vars, validate_term)

__all__ = ["CensusConfig", "sparse_limit", "aggregation_depth"]

# outer-sample rows processed at once in the nested path
_CHUNK_ROWS = 1 << 18


@dataclass(frozen=True)
class CensusConfig:
    """Sampling budget for the neighborhood censuses behind sparse_limit.

    One census is drawn per radius the term requires. n is the size of the
    sampled graphs, node_samples the number of root draws per census;
    graphs and size_cap pass through to neighborhood_census.
    """

    n: int
    node_samples: int
    graphs: Optional[int] = None
    size_cap: int = DEFAULT_SIZE_CAP


def aggregation_depth(term: Term) -> int:
    """Nesting depth of structure-reading operators below a binder.

    This is the radius a decoded neighborhood class must have so the term
    evaluates on it exactly. It differs from reach in one place: a global
    binder does not reset the count, because its body may still read
    structure around outer variables, and the components decoded for those
    variables must extend far enough to serve it.
    """
    if isinstance(term, (Const, Feature)):
        return 0
    if isinstance(term, Rw):
        return term.kmax
    if isinstance(term, Apply):
        return max((aggregation_depth(a) for a in term.args), default=0)
    if isinstance(term, LocalWMean):
        return max(aggregation_depth(term.value),
                   aggregation_depth(term.weight_arg)) + 1
    if isinstance(term, GcnAgg):
        return aggregation_depth(term.value) + 1
    if isinstance(term, GlobalWMean):
        return max(aggregation_depth(term.value),
                   aggregation_depth(term.weight_arg))
    raise TypeError(f"not a term: {term!r}")


def _census_radius(term: GlobalWMean) -> int:
    # degree-normalized sums read the degree of the bound node, which needs
    # one ring of neighborhood beyond the deepest node the body visits
    depth = max(aggregation_depth(term.value),
                aggregation_depth(term.weight_arg))
    pad = 1 if (contains_gcn(term.value)
                or contains_gcn(term.weight_arg)) else 0
    return depth + pad


def _union_rw(adj, kmax: int) -> np.ndarray:
    """(nodes, kmax) walk returns of every node of the union graph adj."""
    indptr = np.cumsum([0] + [len(row) for row in adj])
    indices = [u for row in adj for u in row]
    return walk_returns(indptr, indices, np.arange(len(adj)), kmax)


def _fit_width(vec: np.ndarray, d: int) -> np.ndarray:
    if len(vec) >= d:
        return vec[:d]
    return np.concatenate([vec, np.zeros(d - len(vec))])


@dataclass
class _Ctx:
    """A finite union graph with per-node feature draws.

    adj is the disjoint union of the components opened by the global
    binders in scope; var_nodes points each bound variable at its node.
    feats has shape (nodes, samples, d); every subterm evaluates to a
    (samples, d) array over the same sample axis. rw caches the exact
    walk returns of every union node per kmax and is shared across
    variable rebindings.
    """

    adj: Tuple[Tuple[int, ...], ...]
    var_nodes: Dict[str, int]
    feats: np.ndarray
    rw: Dict[int, np.ndarray]

    @property
    def m(self) -> int:
        return self.feats.shape[1]

    def bind(self, var: str, node: int) -> "_Ctx":
        vn = dict(self.var_nodes)
        vn[var] = node
        return _Ctx(self.adj, vn, self.feats, self.rw)


class _SparseEngine:
    """Censuses, pools, caches, and the eval recursion for one term."""

    def __init__(self, term: Term, registry: FunctionRegistry,
                 dist: FeatureDist, model, census: CensusConfig,
                 mc_samples: int, seed: int, eps: float, inner_mc: int):
        self.term = term
        self.registry = registry
        self.dist = dist
        self.model = model
        self.census = census
        self.d = feature_dim(dist)
        self.mc = mc_samples
        self.seed = seed
        self.eps = eps
        self.inner_mc = inner_mc
        self._tables: Dict[int, CensusTable] = {}
        # radius -> (kept [(code, weight, adj)], dropped mass)
        self._kept: Dict[int, tuple] = {}
        self._pools: Dict[tuple, np.ndarray] = {}
        # per-run state
        self._sel: slice = slice(None)
        self._tag = "full"
        self._cache: Dict[tuple, np.ndarray] = {}

    # censuses -----------------------------------------------------------

    def _table(self, radius: int) -> CensusTable:
        tab = self._tables.get(radius)
        if tab is None:
            sub = int(stream(self.seed, "sparse", "census", radius)
                      .integers(0, 1 << 62))
            tab = neighborhood_census(self.model, self.census.n, radius, 1,
                                      self.census.node_samples, sub,
                                      graphs=self.census.graphs,
                                      size_cap=self.census.size_cap)
            self._tables[radius] = tab
        return tab

    def _types(self, radius: int) -> tuple:
        """Kept (code, weight, adjacency) triples plus the dropped mass."""
        got = self._kept.get(radius)
        if got is None:
            tab = self._table(radius)
            target = 1.0 - self.eps - 1e-12
            kept: List[Tuple[bytes, float]] = []
            cum = 0.0
            for code, prop in tab.types_by_mass():
                kept.append((code, prop))
                cum += prop
                if cum >= target:
                    break
            if cum < target:
                raise ConfigError(
                    f"census at radius {radius} reaches only {cum:.4f} of the "
                    f"mass ({tab.truncated_mass:.4f} went over size cap "
                    f"{self.census.size_cap}); raise eps, the cap, or the "
                    f"sample budget")
            types = tuple((code, prop / cum, tab.decode(code).adj)
                          for code, prop in kept)
            got = (types, max(0.0, 1.0 - cum))
            self._kept[radius] = got
        return got

    # pools --------------------------------------------------------------

    def _pool(self, depth: int, code: bytes, count: int) -> np.ndarray:
        key = (depth, code)
        pool = self._pools.get(key)
        if pool is None:
            rng = stream(self.seed, "sparse", "pool", depth, code.hex())
            pool = draw_features(self.dist, count * self.mc, rng)
            pool = pool.reshape(count, self.mc, self.d)
            pool.flags.writeable = False
            self._pools[key] = pool
        return pool[:, self._sel, :]

    def _inner_draws(self, depth: int, code: bytes, count: int, lo: int,
                     slots: int) -> np.ndarray:
        """Fresh (count, slots, d) draws for one chunk of a nested global.

        Keyed by run tag and chunk offset, so reruns are reproducible while
        every outer sample still gets independent inner draws.
        """
        rng = stream(self.seed, "sparse", "inner", depth, self._tag,
                     code.hex(), lo)
        return draw_features(self.dist, count * slots, rng).reshape(
            count, slots, self.d)

    # runs ---------------------------------------------------------------

    def run(self, sel: slice, tag) -> np.ndarray:
        self._sel = sel
        self._tag = tag
        self._cache = {}
        ctx = _Ctx(adj=(), var_nodes={},
                   feats=np.zeros((0, 1, self.d)), rw={})
        out = self._eval(self.term, ctx, 0)
        return out[0].copy()

    def estimate(self) -> ControllerValue:
        full = self.run(slice(None), "full")
        blocks = [self.run(sl, i)
                  for i, sl in enumerate(block_slices(self.mc))]
        dropped = max((drop for _, drop in self._kept.values()), default=0.0)
        return ControllerValue(estimate=full,
                               stderr=batch_stderr(np.stack(blocks)),
                               mc_samples=self.mc, truncated_mass=dropped)

    # recursion ----------------------------------------------------------

    def _eval(self, term: Term, ctx: _Ctx, depth: int) -> np.ndarray:
        if isinstance(term, Const):
            return np.broadcast_to(np.asarray(term.value, dtype=np.float64),
                                   (ctx.m, self.d))
        if isinstance(term, Feature):
            return ctx.feats[ctx.var_nodes[term.var]]
        if isinstance(term, Rw):
            mat = ctx.rw.get(term.kmax)
            if mat is None:
                mat = ctx.rw[term.kmax] = _union_rw(ctx.adj, term.kmax)
            vec = mat[ctx.var_nodes[term.var]]
            return np.broadcast_to(_fit_width(vec, self.d), (ctx.m, self.d))
        if isinstance(term, Apply):
            args = [self._eval(a, ctx, depth) for a in term.args]
            out = self.registry.call(term.fn, args)
            if not np.all(np.isfinite(out)):
                raise EvaluationError(
                    f"non-finite value from function {term.fn!r}")
            return out
        if isinstance(term, LocalWMean):
            return self._local(term, ctx, depth)
        if isinstance(term, GcnAgg):
            return self._gcn(term, ctx, depth)
        if isinstance(term, GlobalWMean):
            return self._global(term, ctx, depth)
        raise ConfigError(f"unknown term node {type(term).__name__}")

    def _weights(self, wmap: str, eta: np.ndarray, axes) -> np.ndarray:
        """h(eta) with a max shift over `axes` that cancels in the ratio."""
        if wmap == "exp":
            shifted = eta - eta.max(axis=axes, keepdims=True)
            return np.exp(shifted)
        flat = eta.reshape(-1, self.d)
        w = self.registry.call(wmap, [flat])
        return w.reshape(eta.shape)

    def _check_ratio(self, num: np.ndarray, den: np.ndarray, wmap: str):
        if not (np.all(den > 0) and np.all(np.isfinite(den))
                and np.all(np.isfinite(num))):
            raise EvaluationError(
                f"bad aggregate denominator under weight {wmap!r}")

    def _local(self, term: LocalWMean, ctx: _Ctx, depth: int) -> np.ndarray:
        nbrs = ctx.adj[ctx.var_nodes[term.anchor]]
        if not nbrs:
            return np.zeros((ctx.m, self.d))
        vals, etas = [], []
        for j in nbrs:
            sub = ctx.bind(term.bound, j)
            vals.append(self._eval(term.value, sub, depth + 1))
            etas.append(self._eval(term.weight_arg, sub, depth + 1))
        stacked = np.stack(vals)
        w = self._weights(term.weight_map, np.stack(etas), axes=0)
        num = (stacked * w).sum(axis=0)
        den = w.sum(axis=0)
        self._check_ratio(num, den, term.weight_map)
        return num / den

    def _gcn(self, term: GcnAgg, ctx: _Ctx, depth: int) -> np.ndarray:
        anchor = ctx.var_nodes[term.anchor]
        nbrs = ctx.adj[anchor]
        out = np.zeros((ctx.m, self.d))
        for j in nbrs:
            sub = ctx.bind(term.bound, j)
            val = self._eval(term.value, sub, depth + 1)
            out = out + val / math.sqrt(len(nbrs) * len(ctx.adj[j]))
        return out

    def _global(self, term: GlobalWMean, ctx: _Ctx, depth: int) -> np.ndarray:
        types, _ = self._types(_census_radius(term))
        deps = [v for v in set(free_vars(term.value))
                | set(free_vars(term.weight_arg)) if v != term.bound]
        if not deps:
            key = (term, depth)
            cached = self._cache.get(key)
            if cached is None:
                cached = self._mix(term, types, depth)
                self._cache[key] = cached
            return np.broadcast_to(cached, (ctx.m, self.d))
        return self._mix_nested(term, types, ctx, depth)

    def _mix(self, term: GlobalWMean, types, depth: int) -> np.ndarray:
        """Collapsed global: one fresh component per class, shared pools."""
        vals, etas = [], []
        for code, _, adj in types:
            sub = _Ctx(adj=adj, var_nodes={term.bound: 0},
                       feats=self._pool(depth, code, len(adj)), rw={})
            vals.append(self._eval(term.value, sub, depth + 1))
            etas.append(self._eval(term.weight_arg, sub, depth + 1))
        stacked = np.stack(vals)                          # (types, m, d)
        w = self._weights(term.weight_map, np.stack(etas), axes=(0, 1))
        q = np.array([wt for _, wt, _ in types])[:, None]
        num = (q * (stacked * w).mean(axis=1)).sum(axis=0)
        den = (q * w.mean(axis=1)).sum(axis=0)
        self._check_ratio(num, den, term.weight_map)
        return num / den

    def _mix_nested(self, term: GlobalWMean, types, ctx: _Ctx,
                    depth: int) -> np.ndarray:
        """Global whose body reads outer variables: nested pools per class.

        Each outer sample is paired with inner_mc draws for the fresh
        component; the class mixture and the ratio are taken per outer
        sample after averaging over the inner axis.
        """
        inner = self.inner_mc
        base_n = len(ctx.adj)
        exts = []
        for code, wt, adj in types:
            joined = ctx.adj + tuple(tuple(base_n + u for u in row)
                                     for row in adj)
            vn = dict(ctx.var_nodes)
            vn[term.bound] = base_n
            exts.append((wt, code, joined, vn, len(adj)))
        q = np.array([e[0] for e in exts])[:, None, None]
        out = np.empty((ctx.m, self.d))
        step = max(1, _CHUNK_ROWS // inner)
        for lo in range(0, ctx.m, step):
            hi = min(ctx.m, lo + step)
            rows = hi - lo
            outer = np.repeat(ctx.feats[:, lo:hi, :], inner, axis=1)
            vs, es = [], []
            for wt, code, joined, vn, count in exts:
                fresh = self._inner_draws(depth, code, count, lo,
                                          rows * inner)
                sub = _Ctx(adj=joined, var_nodes=vn,
                           feats=np.concatenate([outer, fresh], axis=0),
                           rw={})
                vs.append(self._eval(term.value, sub, depth + 1)
                          .reshape(rows, inner, self.d))
                es.append(self._eval(term.weight_arg, sub, depth + 1)
                          .reshape(rows, inner, self.d))
            stacked = np.stack(vs)                  # (types, rows, inner, d)
            w = self._weights(term.weight_map, np.stack(es), axes=(0, 2))
            num = (q * (stacked * w).mean(axis=2)).sum(axis=0)
            den = (q * w.mean(axis=2)).sum(axis=0)
            self._check_ratio(num, den, term.weight_map)
            out[lo:hi] = num / den
        return out


def sparse_limit(term: Term, model, feature_dist: FeatureDist,
                 census: CensusConfig, mc_samples: int, seed: int, *,
                 eps: float = 0.05,
                 registry: Optional[FunctionRegistry] = None,
                 inner_mc: int = 64) -> ControllerValue:
    """Predict the large-n value of a closed term on a sparse-class model.

    The result's truncated_mass reports the heaviest census mass dropped
    at any radius before renormalization (size-cap overflows included).
    Raises when the censuses cannot cover 1 - eps of the mass at the
    configured size cap.
    """
    reg = registry if registry is not None else default_registry()
    d = feature_dim(feature_dist)
    validate_term(term, reg, d)
    fvs = free_vars(term)
    if fvs:
        raise ConfigError(
            f"sparse limits are defined for closed terms; free: {list(fvs)}")
    if not is_sparse_class(model):
        raise ConfigError(
            f"model {model!r} is not sparse-class; use dense_controller")
    if not isinstance(census, CensusConfig):
        raise ConfigError("census must be a CensusConfig")
    if mc_samples < 2:
        raise ConfigError("mc_samples must be >= 2")
    if inner_mc < 2:
        raise ConfigError("inner_mc must be >= 2")
    if not (0.0 <= eps < 1.0):
        raise ConfigError("mass tolerance eps must lie in [0, 1)")
    engine = _SparseEngine(term, reg, feature_dist, model, census,
                           mc_samples, seed, eps, inner_mc)
    return engine.estimate()

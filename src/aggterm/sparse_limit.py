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
rerun the recursion on disjoint blocks of the draws; census sampling noise
is not included, so size the census budget generously. The pools, the
split and the reruns live in mc.McEngine, shared with the dense
construction; every weighted mean, the class mixtures included, goes
through evaluate.wmean_reduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .census import (DEFAULT_SIZE_CAP, CensusTable, is_sparse_class,
                     neighborhood_census)
from .errors import ConfigError, EvaluationError
from .evaluate import wmean_reduce
from .graphs import FeatureDist, draw_features, feature_dim
from .mc import ControllerValue, McEngine
from .registry import FunctionRegistry, default_registry, fit_width
from .rng import stream
from .rw import walk_returns
from .terms import (Apply, Const, Feature, GcnAgg, GlobalWMean, LocalWMean,
                    Rw, Term, contains_gcn, free_vars, validate_term)

__all__ = ["CensusConfig", "sparse_limit", "aggregation_depth"]


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


def _stack(blocks, m: int, d: int) -> np.ndarray:
    """(len(blocks), m, d) stack of (m, d) blocks, also when there are none."""
    return np.stack(blocks) if blocks else np.zeros((0, m, d))


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


class _SparseEngine(McEngine):
    """Censuses and the eval recursion on decoded classes for one term."""

    kind = "sparse"

    def __init__(self, term: Term, registry: FunctionRegistry,
                 dist: FeatureDist, model, census: CensusConfig,
                 mc_samples: int, seed: int, eps: float, inner_mc: int):
        super().__init__(term, registry, dist, draw_features, mc_samples,
                         seed, inner_mc)
        self.model = model
        self.census = census
        self.eps = eps
        self._tables: Dict[int, CensusTable] = {}
        # radius -> (kept [(code, weight, adj)], dropped mass)
        self._kept: Dict[int, tuple] = {}

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

    def truncated_mass(self) -> float:
        return max((drop for _, drop in self._kept.values()), default=0.0)

    # recursion ----------------------------------------------------------

    def _top(self, _root) -> np.ndarray:
        ctx = _Ctx(adj=(), var_nodes={},
                   feats=np.zeros((0, 1, self.d)), rw={})
        return self._eval(self.term, ctx, 0)

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
            return np.broadcast_to(fit_width(vec, self.d), (ctx.m, self.d))
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
            return self._aggregate(term, ctx, ctx.m, depth)
        raise ConfigError(f"unknown term node {type(term).__name__}")

    def _local(self, term: LocalWMean, ctx: _Ctx, depth: int) -> np.ndarray:
        """One mean per sample over the anchor's neighbours, stacked first."""
        vals, etas = [], []
        for j in ctx.adj[ctx.var_nodes[term.anchor]]:
            sub = ctx.bind(term.bound, j)
            vals.append(self._eval(term.value, sub, depth + 1))
            etas.append(self._eval(term.weight_arg, sub, depth + 1))
        # rebinding frees the per-neighbour blocks before the reduction
        vals, etas = _stack(vals, ctx.m, self.d), _stack(etas, ctx.m, self.d)
        return wmean_reduce(vals, etas, term.weight_map, self.registry, None)

    def _gcn(self, term: GcnAgg, ctx: _Ctx, depth: int) -> np.ndarray:
        anchor = ctx.var_nodes[term.anchor]
        nbrs = ctx.adj[anchor]
        out = np.zeros((ctx.m, self.d))
        for j in nbrs:
            sub = ctx.bind(term.bound, j)
            val = self._eval(term.value, sub, depth + 1)
            out = out + val / math.sqrt(len(nbrs) * len(ctx.adj[j]))
        return out

    def _collapsed(self, term: GlobalWMean, depth: int) -> np.ndarray:
        """One fresh component per class from shared pools; each of a
        class's rows carries mass q / mc."""
        types, _ = self._types(_census_radius(term))
        vals, etas = [], []
        for code, _, adj in types:
            sub = _Ctx(adj=adj, var_nodes={term.bound: 0},
                       feats=self._pool(depth, (code.hex(),), len(adj)),
                       rw={})
            vals.append(self._eval(term.value, sub, depth + 1))
            etas.append(self._eval(term.weight_arg, sub, depth + 1))
        m = vals[0].shape[0]
        mass = np.repeat([wt / m for _, wt, _ in types], m)
        vals, etas = np.concatenate(vals), np.concatenate(etas)
        return wmean_reduce(vals, etas, term.weight_map, self.registry, None,
                            mass)

    def _nested(self, term: GlobalWMean, ctx: _Ctx, m: int,
                depth: int) -> np.ndarray:
        """Global whose body reads outer variables: nested pools per class.

        Each outer sample is paired with inner_mc draws for the fresh
        component of every class; its class mixture is one mean over the
        draws of all classes, each carrying mass q / inner_mc.
        """
        types, _ = self._types(_census_radius(term))
        inner = self.inner_mc
        base_n = len(ctx.adj)
        exts = []
        for code, _, adj in types:
            joined = ctx.adj + tuple(tuple(base_n + u for u in row)
                                     for row in adj)
            vn = dict(ctx.var_nodes)
            vn[term.bound] = base_n
            exts.append((code, joined, vn, len(adj)))
        mass = np.repeat([wt / inner for _, wt, _ in types], inner)
        out = np.empty((m, self.d))
        for lo, hi in self._chunks(m):
            rows = hi - lo
            outer = np.repeat(ctx.feats[:, lo:hi, :], inner, axis=1)
            vs, es = [], []
            for code, joined, vn, count in exts:
                fresh = self._inner_draws(depth, lo, rows * inner,
                                          (code.hex(),), count)
                sub = _Ctx(adj=joined, var_nodes=vn,
                           feats=np.concatenate([outer, fresh], axis=0),
                           rw={})
                vs.append(self._eval(term.value, sub, depth + 1)
                          .reshape(rows, inner, self.d).swapaxes(0, 1))
                es.append(self._eval(term.weight_arg, sub, depth + 1)
                          .reshape(rows, inner, self.d).swapaxes(0, 1))
            vs, es = np.concatenate(vs), np.concatenate(es)
            out[lo:hi] = wmean_reduce(vs, es, term.weight_map, self.registry,
                                      None, mass)
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

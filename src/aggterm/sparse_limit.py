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

Each global's census is drawn once per required radius (see
aggregation_depth below) and cut to the heaviest classes covering 1 - eps
of the mass, renormalized; the dropped mass is reported. The kept classes
are laid out once as one disjoint-union CSR graph; variables bind to
arrays of node ids, and every subterm is a (rows, samples, d) block. The
term runs through the evaluator's own interpreter (evaluate.Interpreter):
features read the draws on the union, walk returns are exact on it, and
local and gcn aggregates run evaluate.local_aggregate. Feature
expectations are Monte-Carlo means split as in the dense construction
(mc.McEngine, whose block reruns give error bars without census noise, so
size the census budget generously). A global whose body reads only its
binder is collapsed: a chunk of classes is one union, a row per class, on
shared pools of mc_samples draws. Otherwise it is nested, at O(1/inner_mc)
ratio bias: per chunk of outer samples, each class's component with
inner_mc fresh draws per outer sample joins the outer rows' components,
whose bindings repeat per class. A class mixture is one mean over all
draws, each of mass q / draws. Chunks over classes, outer rows and anchors
keep blocks near _BLOCK elements whatever the class count; only one class,
row or anchor alone (or a nested row's mixture) exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .census import (DEFAULT_SIZE_CAP, CensusTable, is_sparse_class,
                     neighborhood_census)
from .errors import ConfigError
from .evaluate import local_aggregate, wmean_reduce
from .graphs import (FeatureDist, cost_blocks, draw_features, feature_dim,
                     flat_ranges)
from .mc import ControllerValue, McEngine
from .registry import FunctionRegistry, default_registry, fit_width
from .rng import stream
from .rw import walk_returns
from .terms import (GcnAgg, GlobalWMean, LocalWMean, Rw, Term, contains_gcn,
                    free_vars, read_children, validate_term)

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
    variables must extend far enough to serve it. Like reach, it counts
    only the children a node reads (terms.read_children).
    """
    if isinstance(term, Rw):
        return term.kmax
    inner = max(map(aggregation_depth, read_children(term)), default=0)
    return inner + 1 if isinstance(term, (LocalWMean, GcnAgg)) else inner


def _census_radius(term: GlobalWMean) -> int:
    # degree-normalized sums read the degree of the bound node, which needs
    # one ring of neighborhood beyond the deepest node the body visits
    return aggregation_depth(term) + (1 if contains_gcn(term) else 0)


# elements per evaluated block: nodes or rows, times samples, times d
_BLOCK = 1 << 18


class _Union(NamedTuple):
    """Disjoint components as one CSR graph; component c is nodes
    starts[c]:starts[c + 1]. feats is (nodes, samples, d) or None."""

    indptr: np.ndarray
    indices: np.ndarray
    starts: np.ndarray
    feats: Optional[np.ndarray] = None


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
    size = u.starts[comps + 1] - u.starts[comps]
    keep = flat_ranges(u.starts[comps], size)
    deg = u.indptr[keep + 1] - u.indptr[keep]
    new = np.zeros(len(u.indptr) - 1, dtype=np.int64)
    new[keep] = np.arange(len(keep))
    edges = u.indices[flat_ranges(u.indptr[keep], deg)]
    return _Union(_offsets(deg), new[edges], _offsets(size)), keep


def _join(a: _Union, b: _Union, feats: np.ndarray) -> _Union:
    """b's components appended after a's, with the given features."""
    n = len(a.indptr) - 1
    return _Union(np.concatenate([a.indptr, b.indptr[1:] + a.indptr[-1]]),
                  np.concatenate([a.indices, b.indices + n]),
                  np.concatenate([a.starts, b.starts[1:] + n]), feats)


def _mixture(blocks, rows: int, draws: int) -> Optional[np.ndarray]:
    """Class-major (classes * rows, samples * draws, d) blocks as one
    (classes * draws, rows, samples, d) array, or None for unread weights."""
    if blocks[0] is None:
        return None
    x = np.concatenate(blocks)
    c, s, d = x.shape[0] // rows, x.shape[1] // draws, x.shape[2]
    return (x.reshape(c, rows, s, draws, d).transpose(0, 3, 1, 2, 4)
            .reshape(c * draws, rows, s, d))


class _SparseEngine(McEngine):
    """Censuses, and the term evaluated on unions of decoded classes."""

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
        # radius -> (union, codes, weights, dropped mass) of the kept classes
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
        """Kept classes as (union, codes, weights) plus the dropped mass."""
        got = self._kept.get(radius)
        if got is None:
            tab = self._table(radius)
            target = 1.0 - self.eps - 1e-12
            ranked = tab.types_by_mass()
            sums = np.cumsum([prop for _, prop in ranked])
            kept = ranked[:int(np.searchsorted(sums, target)) + 1]
            cum = float(sums[len(kept) - 1]) if kept else 0.0
            if cum < target:
                raise ConfigError(
                    f"census at radius {radius} reaches only {cum:.4f} of the "
                    f"mass ({tab.truncated_mass:.4f} went over size cap "
                    f"{self.census.size_cap}); raise eps, the cap, or the "
                    f"sample budget")
            codes, props = zip(*kept)
            got = (_layout([tab.decode(code).adj for code in codes]), codes,
                   np.array(props) / cum, max(0.0, 1.0 - cum))
            self._kept[radius] = got
        return got

    def truncated_mass(self) -> float:
        return max((got[3] for got in self._kept.values()), default=0.0)

    # recursion ----------------------------------------------------------
    # a scope's bindings are (union, frame): the union of components the
    # variables live in and each variable's node ids, one per block row

    def _top(self, _root) -> np.ndarray:
        empty = _layout([])._replace(feats=np.zeros((0, 1, self.d)))
        return self._eval(self.term, ((empty, {}), 0, ()), (1, 1, self.d),
                          ())[:, 0]

    def _feature(self, term, scope: tuple) -> np.ndarray:
        g, frame = scope[0]
        return g.feats[frame[term.var]]

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
            self.registry, path, max(1, _BLOCK // (shape[1] * self.d)))

    def _collapsed(self, term: GlobalWMean, depth: int,
                   path: tuple) -> np.ndarray:
        """One row per class, a chunk of classes at a time, on pools."""
        u, codes, weights, _ = self._types(_census_radius(term))
        sizes = np.diff(u.starts)
        m = len(range(self.mc)[self._sel])
        # every pool is drawn before the first block: cached pools drawn in
        # between transient blocks fragment the heap and raise peak RSS
        pools = [self._pool(depth, (code.hex(),), size)
                 for code, size in zip(codes, sizes)]
        vals, etas = [], []
        for a, b in cost_blocks(sizes * (m * self.d), _BLOCK):
            g = _pick(u, np.arange(a, b))[0]._replace(
                feats=np.concatenate(pools[a:b]))
            args = (((g, {term.bound: g.starts[:-1]}), depth + 1, ()),
                    (b - a, m, self.d), path)
            vals.append(self._eval(term.value, *args))
            etas.append(self._weight_arg(term, *args))
        # rebinding frees the per-chunk blocks before the reduction
        vals, etas = _mixture(vals, 1, m), _mixture(etas, 1, m)
        return wmean_reduce(vals, etas, term.weight_map, self.registry, None,
                            np.repeat(weights / m, m), path=path)[0, 0]

    def _nested(self, term: GlobalWMean, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        """Per chunk of outer samples and rows, every class's fresh
        component joins the rows' components, bindings repeated per class."""
        (g, frame), depth, chunks = scope
        u, codes, weights, _ = self._types(_census_radius(term))
        sizes, inner = np.diff(u.starts), self.inner_mc
        mass = np.repeat(weights / inner, inner)
        out = np.empty(shape)
        for lo, hi in self._chunks(shape[1]):
            slots = (hi - lo) * inner
            cost = slots * self.d  # elements per node or row
            per_row = np.full(shape[0], len(codes) * cost)
            for r0, r1 in cost_blocks(per_row, _BLOCK):
                n = r1 - r0
                nodes = np.concatenate([arr[r0:r1] for arr in frame.values()])
                part, keep = _pick(g, np.unique(
                    np.searchsorted(g.starts, nodes, side="right") - 1))
                outer = np.repeat(g.feats[keep, lo:hi], inner, axis=1)
                bound = {v: np.searchsorted(keep, arr[r0:r1])
                         for v, arr in frame.items()}
                vals, etas = [], []
                for a, b in cost_blocks((sizes + n) * cost, _BLOCK):
                    comp, _ = _pick(u, np.arange(a, b))
                    fresh = [self._inner_draws(scope, lo, slots,
                                               (codes[c].hex(),), sizes[c])
                             for c in range(a, b)]
                    joined = _join(part, comp, np.concatenate([outer] + fresh))
                    roots = len(keep) + comp.starts[:-1]
                    sub = {v: np.tile(arr, b - a) for v, arr in bound.items()}
                    sub[term.bound] = np.repeat(roots, n)
                    args = (((joined, sub), depth + 1, chunks + (lo,)),
                            ((b - a) * n, slots, self.d), path)
                    vals.append(self._eval(term.value, *args))
                    etas.append(self._weight_arg(term, *args))
                vals, etas = _mixture(vals, n, inner), _mixture(etas, n, inner)
                out[r0:r1, lo:hi] = wmean_reduce(
                    vals, etas, term.weight_map, self.registry, None, mass,
                    path=path)
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
    if not (0.0 <= eps < 1.0):
        raise ConfigError("mass tolerance eps must lie in [0, 1)")
    engine = _SparseEngine(term, reg, feature_dist, model, census,
                           mc_samples, seed, eps, inner_mc)
    return engine.estimate()

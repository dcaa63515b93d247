"""Limit prediction for aggregation terms on densifying graph models.

On models whose expected degree grows without bound (constant, root, or
logarithmic edge-probability schedules, and block models with fixed block
probabilities), the large-n value of a term stops depending on the sampled
graph: walk-return encodings vanish, and every aggregate, local or global,
turns into a ratio of expectations over fresh i.i.d. feature draws for the
bound variable:

    e[ wmean[v](rho, h, eta) ]  ->  E_b[e_rho(b) h(e_eta(b))] / E_b[h(e_eta(b))]

The extension-pattern weights over adjacency decisions sum out of this
ratio: the language can only read a variable's features, never an edge
indicator, so the integrand never depends on which extension pattern the
new variable realizes (the binomial weights sum to one). The same argument
applies with community labels when features are identically distributed
across blocks. The recursion below therefore evaluates nested expectations
directly; the pattern weights themselves live in graphtypes, and acceptance
test 7 checks their normalization identities.

Expectations are Monte-Carlo means. An aggregate whose body reads only its
own bound variable is "collapsed": one shared pool of mc_samples draws per
nesting depth, evaluated once and cached. An aggregate whose body also
reads outer variables is evaluated per outer sample with inner_mc fresh
draws each, which introduces O(1/inner_mc) ratio bias; raise inner_mc
when such terms need tight answers. Error bars come from rerunning the
recursion on disjoint blocks of the draws. The pools, the collapsed and
nested split and the reruns live in mc.McEngine, shared with the sparse
construction; each ratio goes through evaluate.wmean_reduce.

Degree-normalized aggregation has no construction here and is rejected.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from .errors import ConfigError, EvaluationError, UnsupportedTermError
from .evaluate import wmean_reduce
from .graphs import (DenseSchedule, ErModel, FeatureDist, LogSchedule,
                     RootSchedule, SbmModel, draw_features, feature_dim)
from .mc import ControllerValue, McEngine
from .registry import FunctionRegistry, default_registry
from .terms import (Apply, Const, Feature, GcnAgg, GlobalWMean, LocalWMean,
                    Rw, Term, contains_gcn, free_vars, validate_term)

__all__ = ["dense_controller", "DenseController", "dense_limit_p"]


def dense_limit_p(model) -> float:
    """Limiting edge probability of a densifying model.

    Constant schedules keep their p; root and log schedules thin out to 0.
    Sparse-class models have no densifying limit and are rejected. Block
    models return None: their limit is the (q, P) pair, not a scalar.
    """
    if isinstance(model, ErModel):
        sched = model.schedule
        if isinstance(sched, DenseSchedule):
            return float(sched.p)
        if isinstance(sched, (RootSchedule, LogSchedule)):
            return 0.0
        raise ConfigError(
            f"schedule {sched!r} is not densifying; use the sparse construction")
    if isinstance(model, SbmModel):
        return None
    raise ConfigError(
        f"model {model!r} has no dense limit; use the sparse construction")


class _DenseEngine(McEngine):
    """The eval recursion over i.i.d. feature draws for one term."""

    kind = "dense"

    def _top(self, env0: Dict[str, np.ndarray]) -> np.ndarray:
        return self._eval(self.term, env0, 1, 0)

    def _eval(self, term: Term, env: Dict[str, np.ndarray], m: int,
              depth: int) -> np.ndarray:
        if isinstance(term, Const):
            return np.broadcast_to(np.asarray(term.value, dtype=np.float64),
                                   (m, self.d))
        if isinstance(term, Feature):
            return env[term.var]
        if isinstance(term, Rw):
            return np.zeros((m, self.d))
        if isinstance(term, Apply):
            args = [self._eval(a, env, m, depth) for a in term.args]
            out = self.registry.call(term.fn, args)
            if not np.all(np.isfinite(out)):
                raise EvaluationError(
                    f"non-finite value from function {term.fn!r}")
            return out
        if isinstance(term, GcnAgg):
            raise UnsupportedTermError(
                "degree-normalized aggregation has no dense-limit construction")
        if isinstance(term, (LocalWMean, GlobalWMean)):
            return self._aggregate(term, env, m, depth)
        raise ConfigError(f"unknown term node {type(term).__name__}")

    def _collapsed(self, term, depth: int) -> np.ndarray:
        pool = self._pool(depth)[0]
        env = {term.bound: pool}
        mp = pool.shape[0]
        return wmean_reduce(self._eval(term.value, env, mp, depth + 1),
                            self._weight_arg(term, env, mp, depth + 1),
                            term.weight_map, self.registry, None)

    def _nested(self, term, env, m: int, depth: int) -> np.ndarray:
        inner = self.inner_mc
        out = np.empty((m, self.d))
        for lo, hi in self._chunks(m):
            rows = hi - lo
            total = rows * inner
            sub = {v: np.repeat(arr[lo:hi], inner, axis=0)
                   for v, arr in env.items()}
            sub[term.bound] = self._inner_draws(depth, lo, total)[0]
            vals = self._eval(term.value, sub, total, depth + 1)
            eta = self._weight_arg(term, sub, total, depth + 1)
            out[lo:hi] = wmean_reduce(self._inner_first(vals, rows),
                                      self._inner_first(eta, rows),
                                      term.weight_map, self.registry, None)
        return out


class DenseController:
    """Callable limit predictor for a term with free variables.

    Call with one feature vector per free variable, as a dict keyed by
    variable or as a (variables, d) array. It takes no graph type or
    community labels: the extension-pattern weights sum out of the limit,
    and so do the blocks when features are identically distributed across
    them (see the module docstring).
    """

    def __init__(self, engine: _DenseEngine, variables):
        self._engine = engine
        self.variables = tuple(variables)

    def __call__(self, features) -> ControllerValue:
        return self._engine.estimate(self._env(features))

    def _env(self, features) -> Dict[str, np.ndarray]:
        d = self._engine.d
        if isinstance(features, dict):
            missing = [v for v in self.variables if v not in features]
            if missing:
                raise ConfigError(f"missing features for {missing}")
            rows = [np.asarray(features[v], dtype=np.float64)
                    for v in self.variables]
        else:
            arr = np.asarray(features, dtype=np.float64)
            if arr.ndim == 1 and len(self.variables) == 1:
                arr = arr[None, :]
            if arr.ndim != 2 or arr.shape[0] != len(self.variables):
                raise ConfigError(
                    f"features must be ({len(self.variables)}, {d})")
            rows = list(arr)
        env = {}
        for v, row in zip(self.variables, rows):
            if row.shape != (d,):
                raise ConfigError(f"feature vector for {v!r} must have length {d}")
            if not np.all(np.isfinite(row)):
                raise ConfigError(f"feature vector for {v!r} has non-finite entries")
            env[v] = row[None, :]
        return env


def dense_controller(term: Term, model, feature_dist: FeatureDist,
                     mc_samples: int, seed: int, *,
                     registry: Optional[FunctionRegistry] = None,
                     inner_mc: int = 64
                     ) -> Union[ControllerValue, DenseController]:
    """Build the limit predictor for a term on a densifying model.

    Closed terms produce a ControllerValue outright; terms with free
    variables produce a DenseController to call with feature vectors.
    """
    reg = registry if registry is not None else default_registry()
    d = feature_dim(feature_dist)
    validate_term(term, reg, d)
    if contains_gcn(term):
        raise UnsupportedTermError(
            "degree-normalized aggregation has no dense-limit construction")
    dense_limit_p(model)
    if mc_samples < 2:
        raise ConfigError("mc_samples must be >= 2")
    if inner_mc < 2:
        raise ConfigError("inner_mc must be >= 2")
    engine = _DenseEngine(term, reg, feature_dist, draw_features,
                          mc_samples, seed, inner_mc)
    fvs = free_vars(term)
    if not fvs:
        return engine.estimate({})
    return DenseController(engine, fvs)

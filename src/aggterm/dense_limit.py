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
construction; node meanings come from the evaluator's interpreter
(evaluate.Interpreter), and each ratio goes through evaluate.wmean_reduce.

Degree-normalized aggregation has no construction here and is rejected.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from .errors import ConfigError, UnsupportedTermError
from .evaluate import wmean_reduce
from .graphs import (DenseSchedule, FeatureDist, LogSchedule, RootSchedule,
                     SbmModel, draw_features, feature_dim)
from .mc import ControllerValue, McEngine
from .registry import FunctionRegistry, default_registry
from .terms import Term, contains_gcn, free_vars, validate_term

__all__ = ["dense_controller", "DenseController", "dense_limit_p"]


def dense_limit_p(model) -> float:
    """Limiting edge probability of a densifying model.

    A schedule is densifying when the expected degree n p(n) grows without
    bound: a constant p > 0, a root schedule with k > 0 and beta < 1, or a
    log schedule with k > 0. The limit of p(n) is p, 0 (log, and root with
    beta > 0), min(1, k) (beta = 0) or 1 (beta < 0). Every other schedule
    and every sparse-class model is rejected. Block models return None:
    their limit is the (q, P) pair, not a scalar. A block whose row of P
    is all zero never gains an edge, so such a model is rejected too.
    """
    if isinstance(model, SbmModel):
        for block, row in enumerate(model.p):
            if not any(row):
                raise ConfigError(
                    f"block {block} of {model!r} has no positive edge "
                    f"probability, so its nodes stay isolated and never "
                    f"densify")
        return None
    sched = getattr(model, "schedule", None)
    if isinstance(sched, DenseSchedule) and sched.p > 0:
        return float(sched.p)
    if isinstance(sched, RootSchedule) and sched.k > 0 and sched.beta < 1:
        if sched.beta > 0:
            return 0.0
        return min(1.0, sched.k) if sched.beta == 0 else 1.0
    if isinstance(sched, LogSchedule) and sched.k > 0:
        return 0.0
    raise ConfigError(
        f"model {model!r} is not densifying; use the sparse construction")


class _DenseEngine(McEngine):
    """The term over i.i.d. feature draws: a scope's bindings map each
    variable to its (rows, d) draws."""

    kind = "dense"

    def _top(self, env0: Dict[str, np.ndarray]) -> np.ndarray:
        return self._eval(self.term, (env0, 0, ()), (1, self.d), ())

    def _feature(self, term, scope: tuple) -> np.ndarray:
        return scope[0][term.var]

    def _rw(self, term, scope: tuple, shape: tuple) -> np.ndarray:
        return np.zeros(shape)

    # structure is gone in the limit: a neighbor is a fresh draw, as a
    # globally bound node is
    _local = McEngine._global

    def _collapsed(self, term, depth: int, path: tuple) -> np.ndarray:
        pool = self._pool(depth)[0]
        args = (({term.bound: pool}, depth + 1, ()), pool.shape, path)
        return wmean_reduce(self._eval(term.value, *args),
                            self._weight_arg(term, *args),
                            term.weight_map, self.registry, None, path=path)

    def _nested(self, term, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        env, depth, chunks = scope
        m, inner = shape[0], self.inner_mc
        out = np.empty(shape)
        for lo, hi in self._chunks(m):
            rows = hi - lo
            total = rows * inner
            sub = {v: np.repeat(arr[lo:hi], inner, axis=0)
                   for v, arr in env.items()}
            sub[term.bound] = self._inner_draws(scope, lo, total)[0]
            args = ((sub, depth + 1, chunks + (lo,)), (total, self.d), path)
            vals = self._eval(term.value, *args)
            eta = self._weight_arg(term, *args)
            out[lo:hi] = wmean_reduce(self._inner_first(vals, rows),
                                      self._inner_first(eta, rows),
                                      term.weight_map, self.registry, None,
                                      path=path)
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
    engine = _DenseEngine(term, reg, feature_dist, draw_features,
                          mc_samples, seed, inner_mc)
    fvs = free_vars(term)
    if not fvs:
        return engine.estimate({})
    return DenseController(engine, fvs)

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
across blocks. The engine therefore evaluates nested expectations
directly; the pattern weights themselves live in graphtypes, and acceptance
test 7 checks their normalization identities.

The limit is mc.McEngine at census radius 0: every global aggregate
mixes over the lone root alone, a neighborhood aggregate takes the global
path, and an open term's free variables sit on one-node components
holding the caller's feature vectors. Nested aggregates average inner_mc
fresh draws per outer sample, an O(1/inner_mc) ratio bias; raise inner_mc
when such terms need tight answers.

Degree-normalized aggregation has no construction here and is rejected.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from .census import reject_vanishing_degree
from .errors import ConfigError, UnsupportedTermError
from .graphs import (DenseSchedule, FeatureDist, LogSchedule, RootSchedule,
                     SbmModel, draw_features, feature_dim)
from .mc import ControllerValue, McEngine
from .registry import FunctionRegistry, default_registry
from .terms import GlobalWMean, LocalWMean, Term, validate_term

__all__ = ["dense_controller", "DenseController", "dense_limit_p"]


def dense_limit_p(model) -> float:
    """Limiting edge probability of a densifying model.

    A schedule is densifying when the expected degree n p(n) grows without
    bound: a constant p > 0, a root schedule with k > 0 and beta < 1, or a
    log schedule with k > 0. The limit of p(n) is p, 0 (log, and root with
    beta > 0), min(1, k) (beta = 0) or 1 (beta < 0). Every other schedule
    and every sparse-class model is rejected, a root schedule with
    beta > 1 by reject_vanishing_degree. Block models return None: their
    limit is the (q, P) pair, not a scalar. A block whose row of P is all
    zero never gains an edge, so such a model is rejected too.
    """
    reject_vanishing_degree(model)
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
    """McEngine at census radius 0, where structure is gone."""

    kind = "dense"

    def _radius(self, term) -> int:
        return 0

    # the lone root is the only class, so draws need not name it
    _key = staticmethod(lambda code: ())

    # a neighbor is a fresh draw, as a globally bound node is
    _local = McEngine._global
    _globals = (GlobalWMean, LocalWMean)


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
        for v, row in zip(self.variables, rows):
            if row.shape != (d,):
                raise ConfigError(f"feature vector for {v!r} must have length {d}")
            if not np.all(np.isfinite(row)):
                raise ConfigError(f"feature vector for {v!r} has non-finite entries")
        return dict(zip(self.variables, rows))


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
    if term.gcn:
        raise UnsupportedTermError(
            "degree-normalized aggregation has no dense-limit construction")
    dense_limit_p(model)
    engine = _DenseEngine(term, reg, feature_dist, draw_features,
                          mc_samples, seed, inner_mc)
    if not term.free:
        return engine.estimate()
    return DenseController(engine, term.free)

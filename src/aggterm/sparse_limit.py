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

The mixture runs on mc.McEngine, the engine of the dense limit too. Here
each global aggregate reads a census at the radius its body needs
(its depth, a fact of every term node), drawn once per radius and cut to the heaviest
classes covering 1 - eps of the mass, renormalized; the dropped mass is
reported. Radius 0, a lone root, needs no census. The error bars are
batch means over blocks of the feature draws, taken in the same pass as
the estimate; they hold no census noise, so size the census budget
generously. Nested aggregates keep an O(1/inner_mc) ratio bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .census import DEFAULT_SIZE_CAP, is_sparse_class, neighborhood_census
from .errors import ConfigError, as_int
from .graphs import FeatureDist, draw_features, feature_dim
from .mc import ControllerValue, McEngine, _layout
from .registry import FunctionRegistry, default_registry
from .rng import stream
from .terms import Term, validate_term

__all__ = ["CensusConfig", "sparse_limit"]


@dataclass(frozen=True)
class CensusConfig:
    """Sampling budget for the neighborhood censuses behind sparse_limit.

    One census is drawn per radius the term requires. n is the size of the
    sampled graphs, node_samples the number of root draws per census;
    size_cap passes through to neighborhood_census. The counts are checked
    here, so a term that needs no census still rejects a bad one.
    """

    n: int
    node_samples: int
    size_cap: int = DEFAULT_SIZE_CAP

    def __post_init__(self):
        as_int(self.n, "graph size", 2)
        as_int(self.node_samples, "root sample count", 1)
        as_int(self.size_cap, "size cap", 1)


class _SparseEngine(McEngine):
    """McEngine on the kept classes of censuses, one per radius."""

    kind = "sparse"

    def __init__(self, term: Term, registry: FunctionRegistry,
                 dist: FeatureDist, model, census: CensusConfig,
                 mc_samples: int, seed: int, eps: float, inner_mc: int):
        super().__init__(term, registry, dist, draw_features, mc_samples,
                         seed, inner_mc)
        self.model = model
        self.census = census
        self.eps = eps

    def _census(self, radius: int) -> tuple:
        """The heaviest classes of a sampled census covering 1 - eps of
        its mass, renormalized, as McEngine._types returns them."""
        sub = int(stream(self.seed, "sparse", "census", radius)
                  .integers(0, 1 << 62))
        tab = neighborhood_census(self.model, self.census.n, radius, 1,
                                  self.census.node_samples, sub,
                                  size_cap=self.census.size_cap)
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
        return (_layout([tab.decode(code).adj for code in codes]), codes,
                np.array(props) / cum, max(0.0, 1.0 - cum))

    def truncated_mass(self) -> float:
        return max((got[3] for got in self._kept.values()), default=0.0)


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
    if term.free:
        raise ConfigError(
            f"sparse limits are defined for closed terms; free: {list(term.free)}")
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

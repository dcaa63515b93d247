"""Limit prediction for aggregation terms on bounded-degree graph models.

When expected degrees stay bounded (edge probability K/n, preferential
attachment), the ball around a uniformly random node converges in law to
the local weak limit (Aldous & Lyons, EJP 2007), and the large-n value of
a closed term is a functional of that law. Local aggregates,
degree-normalized sums and walk returns are determined by the ball around
their anchor, so they are exact on a sampled ball; a global binder lands
far from every node pinned before it, so its aggregate is a mean over
fresh balls, each a disjoint component.

The mean runs on mc.McEngine, the dense limit's engine too. A global
aggregate whose body reads radius r >= 1 (its depth, plus one under a
degree-normalized sum) runs on node_samples balls of radius r, grown
uncapped by the census BFS around uniform roots of graphs of census.n
nodes, each with one fresh feature draw and mass 1/node_samples; radius 0
is a lone root, with no graph. Error block b owns its graphs, its slice
of the balls and every inner ball picked under it, so the error bars hold
structure noise and feature noise both. Finite graphs leave a bias of
order 1/census.n; nested aggregates keep an O(1/inner_mc) ratio bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# neighborhood_census is not called here; bench/tracing.py wraps it here
from .census import is_sparse_class, neighborhood_census, sample_balls  # noqa: F401
from .errors import ConfigError, as_int
from .graphs import FeatureDist, draw_features, feature_dim
from .mc import ControllerValue, McEngine, _Union, block_slices
from .registry import FunctionRegistry, default_registry
from .rng import stream
from .terms import Term, validate_term

__all__ = ["CensusConfig", "sparse_limit"]


@dataclass(frozen=True)
class CensusConfig:
    """Sampling budget for the rooted balls behind sparse_limit.

    n is the size of the graphs the balls come from, node_samples the
    number of balls per radius >= 1 aggregate, split evenly over the error
    blocks. The counts are checked here, so a term that reads no
    structure still rejects a bad one.
    """

    n: int
    node_samples: int

    def __post_init__(self):
        as_int(self.n, "graph size", 2)
        as_int(self.node_samples, "root sample count", 1)


class _SparseEngine(McEngine):
    """McEngine on balls sampled per radius and error block."""

    kind = "sparse"
    truncated_mass = 0.0

    def __init__(self, term: Term, registry: FunctionRegistry,
                 dist: FeatureDist, model, census: CensusConfig,
                 mc_samples: int, seed: int, inner_mc: int):
        super().__init__(term, registry, dist, draw_features, mc_samples,
                         seed, inner_mc)
        self.model = model
        self.census = census
        self._sampled: dict = {}  # (radius, block) -> that block's balls

    def _balls(self, radius: int, block: int) -> _Union:
        """Block's slice of the node_samples balls of a radius, grown on
        graphs of its own."""
        if (radius, block) not in self._sampled:
            total = self.census.node_samples
            if total < self._nblocks:
                raise ConfigError(f"{total} root samples cannot fill "
                                  f"{self._nblocks} error blocks")
            sl = block_slices(total, self._nblocks)[block]
            sub = int(stream(self.seed, "sparse", "graphs", radius, block)
                      .integers(0, 1 << 62))
            self._sampled[radius, block] = _Union(*sample_balls(
                self.model, self.census.n, radius, sl.stop - sl.start, sub))
        return self._sampled[radius, block]


def sparse_limit(term: Term, model, feature_dist: FeatureDist,
                 census: CensusConfig, mc_samples: int, seed: int, *,
                 registry: Optional[FunctionRegistry] = None,
                 inner_mc: int = 64) -> ControllerValue:
    """Predict the large-n value of a closed term on a sparse-class model.

    mc_samples is the lone root's draws per radius-0 aggregate and sets
    the error blocks (10, or mc_samples if fewer); census.node_samples is
    the balls per radius >= 1 aggregate. The result's truncated_mass is
    0.0: no ball is cut.
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
    engine = _SparseEngine(term, reg, feature_dist, model, census,
                           mc_samples, seed, inner_mc)
    return engine.estimate()

"""Empirical frequency tables of rooted neighborhoods on sparse models.

On models whose expected degree stays bounded (edge probability K/n, or
preferential attachment), the isomorphism class of the radius-l ball around
a random node tuple converges in distribution. The census estimates that
distribution: sample graphs, sample root tuples, canonicalize each ball,
and tabulate proportions. Neighborhoods whose ball exceeds the size cap are
tallied into an explicit overflow bucket rather than poisoning the run, so
a table's proportions can sum to less than one; the gap is reported as
truncated mass.

Models with growing degrees are rejected outright: their balls swallow the
whole graph and no finite table approximates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .canonical import canonical_code, decode_code
from .errors import ConfigError, NeighborhoodTooLargeError, as_int
from .graphs import (BaModel, ErModel, RootedGraph, SparseSchedule,
                     rooted_neighborhood, sample_graph)
from .rng import stream

__all__ = ["CensusTable", "neighborhood_census", "is_sparse_class",
           "DEFAULT_SIZE_CAP"]

DEFAULT_SIZE_CAP = 64
_GRAPH_BATCH = 500  # root samples drawn per sampled graph by default


def is_sparse_class(model) -> bool:
    """True when the model keeps expected degrees bounded as n grows."""
    if isinstance(model, BaModel):
        return True
    return isinstance(model, ErModel) and isinstance(model.schedule, SparseSchedule)


@dataclass(frozen=True)
class CensusTable:
    """Estimated proportions of rooted-neighborhood classes.

    proportions maps canonical codes (bytes) to empirical frequencies.
    truncated_mass is the fraction of samples whose ball overflowed the
    size cap; proportions sum to 1 - truncated_mass.
    """

    radius: int
    k: int
    proportions: Dict[bytes, float]
    sample_size: int
    truncated_mass: float

    def __post_init__(self):
        object.__setattr__(self, "proportions", dict(self.proportions))
        if self.sample_size < 1:
            raise ConfigError("census sample size must be >= 1")
        if not (0.0 <= self.truncated_mass <= 1.0):
            raise ConfigError("truncated mass must lie in [0, 1]")
        total = 0.0
        for code, prop in self.proportions.items():
            if not (0.0 <= prop <= 1.0):
                raise ConfigError(f"proportion {prop} outside [0, 1]")
            total += prop
        if total > 1.0 + 1e-9:
            raise ConfigError(f"proportions sum to {total} > 1")

    def total_mass(self) -> float:
        return sum(self.proportions.values())

    def types_by_mass(self) -> List[Tuple[bytes, float]]:
        """(code, proportion) pairs, heaviest first, ties broken by code."""
        return sorted(self.proportions.items(), key=lambda kv: (-kv[1], kv[0]))

    def decode(self, code: bytes) -> RootedGraph:
        return decode_code(code)

    def root_degree_mass(self) -> Dict[int, float]:
        """Mass per degree of the first root; needs radius >= 1 to be exact."""
        out: Dict[int, float] = {}
        for code, prop in self.proportions.items():
            deg = decode_code(code).degree(0)
            out[deg] = out.get(deg, 0.0) + prop
        return out


def _sample_tuples(rng, n: int, k: int, want: int) -> List[Tuple[int, ...]]:
    """Distinct k-tuples of distinct nodes, uniformly without replacement."""
    if k == 1:
        if want > n:
            raise ConfigError(
                "more root samples than nodes in one graph; raise graphs or n")
        return [(int(v),) for v in rng.choice(n, size=want, replace=False)]
    out: List[Tuple[int, ...]] = []
    seen = set()
    attempts = 0
    limit = 50 * want + 1000
    while len(out) < want:
        tup = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
        attempts += 1
        if tup in seen:
            if attempts > limit:
                raise ConfigError(
                    "cannot draw enough distinct root tuples; raise n or graphs")
            continue
        seen.add(tup)
        out.append(tup)
    return out


def neighborhood_census(model, n: int, radius: int, k: int,
                        node_samples: int, seed: int,
                        graphs: Optional[int] = None,
                        size_cap: int = DEFAULT_SIZE_CAP) -> CensusTable:
    """Tabulate rooted-neighborhood proportions by sampling.

    Samples are spread over several independently drawn graphs (by default
    one graph per 500 root tuples) so a single unusual graph cannot skew
    the table. Each (graph, tuple) item is keyed off the master seed
    independently, making the tally order-insensitive.
    """
    if not is_sparse_class(model):
        raise ConfigError(
            "census needs a sparse-class model (edge schedule K/n or "
            "preferential attachment); growing degrees make neighborhood "
            "balls explode with n")
    radius = as_int(radius, "radius", 0)
    k = as_int(k, "root count", 1)
    node_samples = as_int(node_samples, "root sample count", 1)
    n = as_int(n, "graph size", k + 1)
    size_cap = as_int(size_cap, "size cap", k)
    if graphs is None:
        graphs = max(1, math.ceil(node_samples / _GRAPH_BATCH))
    graphs = min(as_int(graphs, "graph count", 1), node_samples)
    base, extra = divmod(node_samples, graphs)
    tallies: Dict[bytes, int] = {}
    overflow = 0
    for i in range(graphs):
        want = base + (1 if i < extra else 0)
        if want == 0:
            continue
        g = sample_graph(model, n, stream(seed, "census", "graph", i))
        tuples = _sample_tuples(stream(seed, "census", "roots", i), n, k, want)
        for tup in tuples:
            try:
                rg = rooted_neighborhood(g, tup, radius, size_cap=size_cap)
                code = canonical_code(rg, size_cap=size_cap).code
            except NeighborhoodTooLargeError:
                overflow += 1
                continue
            tallies[code] = tallies.get(code, 0) + 1
    props = {c: cnt / node_samples for c, cnt in tallies.items()}
    return CensusTable(radius=radius, k=k, proportions=props,
                       sample_size=node_samples,
                       truncated_mass=overflow / node_samples)

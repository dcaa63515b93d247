"""Empirical frequency tables of rooted neighborhoods on sparse models.

On models whose expected degree stays bounded (edge probability K/n, or
preferential attachment), the isomorphism class of the radius-l ball around
a random node tuple converges in distribution. The census estimates that
distribution: sample graphs, sample root tuples, canonicalize each ball,
and tabulate proportions. Neighborhoods whose ball exceeds the size cap are
tallied into an explicit overflow bucket rather than poisoning the run, so
a table's proportions can sum to less than one; the gap is reported as
truncated mass.

Each sampled graph is one batch: a NumPy BFS grows every root tuple's ball
at once, and canonical.ball_codes codes all balls that fit without a
per-ball Python loop. Forests (nearly all balls on sparse ER) take AHU
codes; balls with a cycle, most of them on preferential attachment, take
one batched twin reduction and color refinement, and only balls left
with ties after one batched individualization reach the Python search.
The tallies equal those of the per-root path, rooted_neighborhood plus
canonical_code for each tuple, which stays public as the reference.
sample_balls grows balls the same way on the same graph and root draws
for the sparse limit, which reads them as they are: neither capped nor
coded.

Models with growing degrees are rejected outright: their balls swallow the
whole graph and no finite table approximates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .canonical import (DEFAULT_SIZE_CAP, ball_codes, canonical_code,
                        check_code_limits, code_counts, decode_code)
from .errors import ConfigError, as_int
from .graphs import (BaModel, ErModel, RootedGraph, RootSchedule,
                     SparseSchedule, flat_ranges, rooted_neighborhood,
                     run_starts, sample_graph)
from .rng import stream

__all__ = ["CensusTable", "neighborhood_census", "sample_balls",
           "is_sparse_class",
           "reject_vanishing_degree", "DEFAULT_SIZE_CAP",
           "rooted_neighborhood", "canonical_code"]

_GRAPH_BATCH = 500  # root samples drawn per sampled graph


def reject_vanishing_degree(model) -> None:
    """Raise ConfigError on an ER root schedule with beta > 1.

    Its expected degree k n^(1 - beta) tends to 0, so the graphs are
    neither densifying nor sparse-class: large ones have almost no edges,
    and no limit predictor models that.
    """
    sched = getattr(model, "schedule", None)
    if isinstance(sched, RootSchedule) and sched.beta > 1:
        raise ConfigError(
            f"model {model!r} is not densifying and not sparse-class: its "
            f"expected degree k n^(1 - beta) vanishes as n grows")


def is_sparse_class(model) -> bool:
    """True when the model keeps expected degrees bounded as n grows:
    preferential attachment, and ER with p = K/n, from a sparse schedule or
    a root schedule with beta = 1 (K = k). A root schedule with beta > 1
    raises (reject_vanishing_degree)."""
    reject_vanishing_degree(model)
    if isinstance(model, BaModel):
        return True
    sched = getattr(model, "schedule", None)
    return isinstance(model, ErModel) and (
        isinstance(sched, SparseSchedule)
        or isinstance(sched, RootSchedule) and sched.beta == 1)


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
            deg = code_counts(code)[2]
            out[deg] = out.get(deg, 0.0) + prop
        return out


def _sample_tuples(rng, n: int, k: int, want: int) -> List[Tuple[int, ...]]:
    """Distinct k-tuples of distinct nodes, uniformly without replacement."""
    if k == 1:
        if want > n:
            raise ConfigError(
                "more root samples than nodes in one graph; raise n")
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
                    "cannot draw enough distinct root tuples; raise n")
            continue
        seen.add(tup)
        out.append(tup)
    return out


def _find(keys: np.ndarray, q: np.ndarray):
    """Positions of q in the sorted, non-empty keys, and which are there."""
    at = np.searchsorted(keys, q)
    return at, keys[np.minimum(at, len(keys) - 1)] == q


def _grow(g, tuples: np.ndarray, radius: int, size_cap: int) -> tuple:
    """Each root tuple's radius ball in g, all grown together one BFS
    layer at a time: node counts, which fit in size_cap nodes (the others
    stop growing), the fitting balls' nodes as sorted int64 keys ball * n
    + node, and their induced arcs (src, dst) as key positions sorted by
    src. Each edge is looked up from its endpoint that comes first by
    (degree, node), so a ball never scans the whole row of a hub it holds.
    """
    n, indptr, indices, deg = g.n, g.indptr, g.indices, g.degrees
    m, k = tuples.shape
    front = (np.arange(m)[:, None] * n + tuples).ravel()
    seen = np.sort(front)
    size = np.full(m, k)
    over = np.zeros(m, dtype=bool)
    for _ in range(radius):
        at = front % n
        # a node inside the radius brings all its neighbors into the ball
        over[(front // n)[deg[at] >= size_cap]] = True
        live = ~over[front // n]
        front, at = front[live], at[live]
        near = np.sort(np.repeat(front - at, deg[at])
                       + indices[flat_ranges(indptr[at], deg[at])])
        near = near[run_starts(near)]
        front = near[~_find(seen, near)[1]]
        if not len(front):
            break
        seen = np.sort(np.concatenate([seen, front]))
        size += np.bincount(front // n, minlength=m)
        over |= size > size_cap
    keys = seen[~over[seen // n]]
    tail = np.repeat(np.arange(n), deg)
    later = (deg[indices] > deg[tail]) | (
        (deg[indices] == deg[tail]) & (indices > tail))
    up = np.bincount(tail[later], minlength=n)
    node = keys % n
    at, hit = _find(keys, np.repeat(keys - node, up[node])
                    + indices[later][flat_ranges((np.cumsum(up) - up)[node],
                                                 up[node])])
    u = np.repeat(np.arange(len(keys)), up[node])[hit]
    src, dst = np.r_[u, at[hit]], np.r_[at[hit], u]
    by = np.argsort(src)
    return size, ~over, keys, src[by], dst[by]


def _ball_codes(g, tuples: np.ndarray, radius: int,
                size_cap: int) -> List[Optional[bytes]]:
    """The canonical code of each root tuple's radius ball in g (_grow),
    or None where it has more than size_cap nodes. The balls that fit are
    coded in one batch (canonical.ball_codes): forests by AHU codes, the
    others by batched twin reduction and color refinement, with a search
    left for the balls that stay tied. Codes are canonical, so they equal
    canonical_code's on rooted_neighborhood byte for byte."""
    size, fits, keys, src, dst = _grow(g, tuples, radius, size_cap)
    codes: List[Optional[bytes]] = [None] * len(size)
    balls = np.flatnonzero(fits)
    if len(balls):
        roots = np.searchsorted(keys, balls[:, None] * g.n + tuples[balls])
        for b, code in zip(balls.tolist(),
                           ball_codes(size[balls], roots, src, dst)):
            codes[b] = code
    return codes


def _root_batches(model, n: int, k: int, count: int, seed: int):
    """(graph, root tuples) per graph of n nodes, one per 500 tuples."""
    graphs = math.ceil(count / _GRAPH_BATCH)
    base, extra = divmod(count, graphs)
    for i in range(graphs):
        g = sample_graph(model, n, stream(seed, "census", "graph", i))
        tuples = _sample_tuples(stream(seed, "census", "roots", i), n, k,
                                base + (1 if i < extra else 0))
        yield g, np.array(tuples, dtype=np.int64)


def sample_balls(model, n: int, radius: int, count: int, seed: int) -> tuple:
    """count radius balls on neighborhood_census's graph and root draws,
    neither capped nor coded: the CSR (indptr, indices, starts) of their
    union, ball b on nodes starts[b]:starts[b + 1], its root first."""
    arcs, sizes, total = [], [], 0
    for g, tuples in _root_batches(model, n, 1, count, seed):
        # no ball holds more than the graph's n nodes
        size, _, keys, src, dst = _grow(g, tuples, radius, g.n + 1)
        ball = keys // g.n
        # each ball's root first, then its other nodes in order
        new = np.empty_like(keys)
        new[np.lexsort((keys != ball * g.n + tuples[ball, 0], ball))] = (
            np.arange(total, total + len(keys)))
        arcs.append((new[src], new[dst]))
        sizes.append(size)
        total += len(keys)
    src, dst = (np.concatenate(x) for x in zip(*arcs))
    return (np.r_[0, np.cumsum(np.bincount(src, minlength=total))],
            dst[np.argsort(src, kind="stable")],
            np.r_[0, np.cumsum(np.concatenate(sizes))])


def neighborhood_census(model, n: int, radius: int, k: int,
                        node_samples: int, seed: int,
                        size_cap: int = DEFAULT_SIZE_CAP) -> CensusTable:
    """Tabulate rooted-neighborhood proportions by sampling.

    Samples are spread over several independently drawn graphs (one graph
    per 500 root tuples) so a single unusual graph cannot skew
    the table. Each (graph, tuple) item is keyed off the master seed
    independently, making the tally order-insensitive. The tally equals
    one rooted_neighborhood plus canonical_code per tuple, with
    NeighborhoodTooLargeError counted as overflow, but every graph's balls
    are expanded and (where they are forests) coded in one batch.
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
    check_code_limits(k, size_cap)
    tallies: Dict[bytes, int] = {}
    overflow = 0
    for g, tuples in _root_batches(model, n, k, node_samples, seed):
        for code in _ball_codes(g, tuples, radius, size_cap):
            if code is None:
                overflow += 1
            else:
                tallies[code] = tallies.get(code, 0) + 1
    props = {c: cnt / node_samples for c, cnt in tallies.items()}
    return CensusTable(radius=radius, k=k, proportions=props,
                       sample_size=node_samples,
                       truncated_mass=overflow / node_samples)

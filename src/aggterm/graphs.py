"""Random graph models, featured graphs, and rooted neighborhoods.

Graphs are undirected, simple, with nodes 0..n-1. Adjacency is stored in
compressed sparse rows (indptr/indices) with each row sorted, which doubles
as the per-node sorted neighbor list. Features are a dense (n, d) float
array; d = 0 means no features attached yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NeighborhoodTooLargeError, as_int
from .rng import stream

SeedLike = Union[int, np.random.Generator]


def _as_rng(seed: SeedLike, *tags) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(int(seed), *tags)


# ---------------------------------------------------------------------------
# schedules and model specs
# ---------------------------------------------------------------------------


def _finite(x, what: str) -> None:
    """Refuse x unless it is a finite real number, as the spec codec does."""
    try:
        ok = math.isfinite(x)
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"{what} must be a finite number, got {x!r}")


class _Rate:
    """Root, log and sparse schedules scale with a finite rate k >= 0."""

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ConfigError(f"schedule rate k must be finite and >= 0, got {self.k}")


@dataclass(frozen=True)
class DenseSchedule:
    """Constant edge probability p(n) = p."""

    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"edge probability p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class RootSchedule(_Rate):
    """p(n) = min(1, K * n**-beta)."""

    k: float
    beta: float

    def __post_init__(self):
        super().__post_init__()
        _finite(self.beta, "schedule exponent beta")


@dataclass(frozen=True)
class LogSchedule(_Rate):
    """p(n) = min(1, K * log(n) / n)."""

    k: float


@dataclass(frozen=True)
class SparseSchedule(_Rate):
    """p(n) = min(1, K / n)."""

    k: float


@dataclass(frozen=True)
class AlternatingSchedule:
    """Dispatch on the parity of n; used to build non-convergent sequences."""

    even: "Schedule"
    odd: "Schedule"


Schedule = Union[DenseSchedule, RootSchedule, LogSchedule, SparseSchedule, AlternatingSchedule]


def eval_schedule(schedule: Schedule, n: int) -> float:
    """Edge probability of the schedule at size n, clamped into [0, 1]."""
    if n < 1:
        raise ConfigError(f"graph size must be >= 1, got {n}")
    if isinstance(schedule, DenseSchedule):
        p = schedule.p
    elif isinstance(schedule, RootSchedule):
        p = schedule.k * float(n) ** (-schedule.beta)
    elif isinstance(schedule, LogSchedule):
        p = schedule.k * math.log(n) / n
    elif isinstance(schedule, SparseSchedule):
        p = schedule.k / n
    elif isinstance(schedule, AlternatingSchedule):
        inner = schedule.even if n % 2 == 0 else schedule.odd
        return eval_schedule(inner, n)
    else:
        raise ConfigError(f"unknown schedule {schedule!r}")
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class ErModel:
    schedule: Schedule


@dataclass(frozen=True)
class SbmModel:
    fractions: tuple[float, ...]
    p: tuple[tuple[float, ...], ...]  # symmetric M x M inter-community probabilities

    def __post_init__(self):
        m = len(self.fractions)
        if m == 0:
            raise ConfigError("SBM needs at least one community")
        for f in self.fractions:
            _finite(f, "community fraction")
        if any(f <= 0 for f in self.fractions):
            raise ConfigError("community fractions must be positive")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError("community fractions must sum to 1")
        if len(self.p) != m or any(len(row) != m for row in self.p):
            raise ConfigError("probability matrix shape must match fraction count")
        for i in range(m):
            for j in range(m):
                pij = self.p[i][j]
                if not (0.0 <= pij <= 1.0):
                    raise ConfigError("probabilities must lie in [0, 1]")
                if pij != self.p[j][i]:
                    raise ConfigError("probability matrix must be symmetric")


@dataclass(frozen=True)
class BaModel:
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", as_int(self.m, "preferential attachment m"))
        if self.m < 1:
            raise ConfigError("preferential attachment needs m >= 1")


GraphModel = Union[ErModel, SbmModel, BaModel]


# ---------------------------------------------------------------------------
# feature distributions
# ---------------------------------------------------------------------------


class _Features:
    """Every feature distribution draws dim >= 1 coordinates per node."""

    def __post_init__(self):
        object.__setattr__(self, "dim", as_int(self.dim, "feature dimension", 1))


@dataclass(frozen=True)
class Uniform01(_Features):
    dim: int


@dataclass(frozen=True)
class UniformRange(_Features):
    a: float
    b: float
    dim: int

    def __post_init__(self):
        super().__post_init__()
        _finite(self.a, "uniform range bound a")
        _finite(self.b, "uniform range bound b")
        if self.a > self.b:
            raise ConfigError("need a <= b for uniform range features")


@dataclass(frozen=True)
class BernoulliFeatures(_Features):
    q: float
    dim: int

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.q <= 1.0):
            raise ConfigError("Bernoulli parameter must lie in [0, 1]")


@dataclass(frozen=True)
class ConstantFeatures(_Features):
    c: float
    dim: int

    def __post_init__(self):
        super().__post_init__()
        _finite(self.c, "constant feature c")


@dataclass(frozen=True)
class PaddedFeatures(_Features):
    """Draws from `base`, zero-padded on the right to `dim` coordinates."""

    base: "FeatureDist"
    dim: int

    def __post_init__(self):
        super().__post_init__()
        if self.base.dim > self.dim:
            raise ConfigError(
                f"cannot pad {self.base.dim}-wide draws into {self.dim} coordinates")


FeatureDist = Union[Uniform01, UniformRange, BernoulliFeatures,
                    ConstantFeatures, PaddedFeatures]


def feature_dim(dist: FeatureDist) -> int:
    return dist.dim


# ---------------------------------------------------------------------------
# featured graph container
# ---------------------------------------------------------------------------


class FeaturedGraph:
    """Undirected graph with optional node features and community labels.

    Attributes:
        n: node count, >= 1.
        indptr, indices: CSR adjacency with sorted rows.
        features: (n, d) float64 array, d >= 0.
        community: None, or int array of labels in 1..M.
    """

    __slots__ = ("n", "indptr", "indices", "features", "community")

    def __init__(self, n, indptr, indices, features=None, community=None):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if features is None:
            features = np.zeros((self.n, 0))
        self.features = np.asarray(features, dtype=np.float64)
        self.community = None if community is None else np.asarray(community, dtype=np.int64)
        for arr in (self.indptr, self.indices, self.features):
            arr.flags.writeable = False
        if self.community is not None:
            self.community.flags.writeable = False

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def validate(self):
        """Check structural invariants; raises AssertionError on violation."""
        assert self.n >= 1
        assert self.indptr.shape == (self.n + 1,)
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert np.all(np.diff(self.indptr) >= 0)
        if len(self.indices):
            assert self.indices.min() >= 0 and self.indices.max() < self.n
        deg = self.degrees
        assert int(deg.sum()) == len(self.indices)  # sum of degrees is twice the edge count
        seen = set()
        for v in range(self.n):
            row = self.neighbors(v)
            assert np.all(np.diff(row) > 0), f"row {v} not strictly sorted"
            assert v not in set(row.tolist()), f"self-loop at {v}"
            for u in row.tolist():
                seen.add((min(u, v), max(u, v)))
        # symmetry: every directed arc has its reverse
        assert 2 * len(seen) == len(self.indices)
        assert self.features.shape[0] == self.n
        assert np.all(np.isfinite(self.features))
        if self.community is not None:
            assert self.community.shape == (self.n,)
            assert self.community.min() >= 1

    def with_features(self, features: np.ndarray) -> "FeaturedGraph":
        return FeaturedGraph(self.n, self.indptr, self.indices, features, self.community)


def from_edges(n: int, u: np.ndarray, v: np.ndarray,
               features=None, community=None) -> FeaturedGraph:
    """Build a FeaturedGraph from unique edge endpoint arrays with u < v."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = len(u)
    keys = np.empty(2 * m, dtype=np.int64)
    np.add(np.multiply(u, n, out=keys[:m]), v, out=keys[:m])
    np.add(np.multiply(v, n, out=keys[m:]), u, out=keys[m:])
    return _from_keys(n, keys, features, community)


def _from_keys(n, keys, features=None, community=None) -> FeaturedGraph:
    """The graph of unique arc keys source * n + neighbor, sorted in place."""
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return FeaturedGraph(n, indptr, np.remainder(keys, n, out=keys),
                         features, community)


def flat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i] : starts[i] + counts[i], concatenated; with CSR
    row starts and degrees, the positions of those rows' neighbors."""
    seg = np.concatenate([[0], np.cumsum(counts)])
    return np.arange(seg[-1]) + np.repeat(starts - seg[:-1], counts)


def run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted 1-D array that differ from the one
    before: the first of each run of equal values. x[run_starts(x)] is
    np.unique(x) without NumPy 2's hashing pass, which costs about ten
    times a sort on arrays of this package's sizes."""
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return first


# float64 elements (2 MiB) in a chunked kernel's largest temporary; kernels
# read it at call time, so setting graphs.BLOCK shrinks them all
BLOCK = 1 << 18


def cost_blocks(cost: np.ndarray, cap: float):
    """Consecutive [lo, hi) ranges of items whose summed cost is about cap."""
    if len(cost) == 1:  # a lone item is one block, without the array passes
        return [(0, 1)]
    group = (np.cumsum(cost) - cost) // cap
    bounds = np.append(np.flatnonzero(np.diff(group, prepend=-1)), len(cost))
    return zip(bounds[:-1], bounds[1:])


def dense_rows(indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int,
               weights: Optional[np.ndarray] = None,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows lo:hi of the CSR adjacency as a dense (hi - lo, n) slab.

    Entry [i, j] is weights[k] for the CSR entry k that links lo + i to j
    (1 without weights) and 0 where there is no edge. out, when given, is
    an all-zero (hi - lo, n) array to fill and return.
    """
    n = len(indptr) - 1
    a, b = indptr[lo], indptr[hi]
    out = np.zeros((hi - lo, n)) if out is None else out
    owner = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
    out[owner, indices[a:b]] = 1.0 if weights is None else weights[a:b]
    return out


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_SPARSE_METHOD_CUTOFF = 0.01  # below this, skip-sample pair indices instead of scanning all


def _pair_cum(u, n):
    # number of (a, b) pairs with a < u (ordered by a, then b)
    return u * (2 * n - u - 1) // 2


def _linear_to_pair(lin: np.ndarray, n: int):
    """Invert the row-major linearization of upper-triangle pairs."""
    lf = lin.astype(np.float64)
    u = np.floor(n - 0.5 - np.sqrt((n - 0.5) ** 2 - 2.0 * lf)).astype(np.int64)
    u = np.clip(u, 0, n - 2)
    for _ in range(4):
        hi = _pair_cum(u, n) > lin
        u[hi] -= 1
        lo = _pair_cum(u + 1, n) <= lin
        u[lo] += 1
        if not hi.any() and not lo.any():
            break
    v = lin - _pair_cum(u, n) + u + 1
    return u, v


def gen_er(n: int, schedule: Schedule, seed: SeedLike) -> FeaturedGraph:
    """Sample G(n, p(n)). Uses geometric skip-sampling once p is tiny."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    p = eval_schedule(schedule, n)
    rng = _as_rng(seed, "er", n)
    if n == 1 or p == 0.0:
        return from_edges(n, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    if p < _SPARSE_METHOD_CUTOFF:
        total = n * (n - 1) // 2
        picked = []
        pos = -1
        while True:
            want = max(1024, int((total - pos) * p * 1.25) + 16)
            gaps = rng.geometric(p, size=want)
            cand = pos + np.cumsum(gaps)
            inside = cand[cand < total]
            picked.append(inside)
            if len(inside) < len(cand):
                break
            pos = int(cand[-1])
        lin = np.concatenate(picked) if picked else np.array([], dtype=np.int64)
        u, v = _linear_to_pair(lin, n) if len(lin) else (lin, lin)
        return from_edges(n, u, v)
    u = np.arange(n - 1)
    return _bernoulli_graph(rng, n, [(u, u + 1, n - 1 - u, p)])


def _bernoulli_graph(rng: np.random.Generator, n: int, runs,
                     community=None) -> FeaturedGraph:
    """The graph of independent Bernoulli rows, drawn in order.

    A run (u, first, length, p) holds equal-length integer arrays of rows
    that share p: row i draws rng.random(length[i]) and links u[i] to
    first[i] + j wherever draw j is below p. Consecutive rows of a run
    share one rng.random call of about BLOCK draws (2 MiB). The generator's
    doubles concatenate across calls, so the edges are the ones a call
    per row would give. Each block writes both arcs of its edges into one
    key array, sized for the expected edges plus six deviations, or grown.
    """
    mean = sum(p * float(length.sum()) for _, _, length, p in runs)
    keys = np.empty(2 * int(mean + 6 * math.sqrt(mean) + 64), dtype=np.int64)
    at = 0
    for u, first, length, p in runs:
        ends = np.cumsum(length)
        for lo, hi in cost_blocks(length, BLOCK):
            base = ends[lo] - length[lo]
            hit = np.flatnonzero(rng.random(ends[hi - 1] - base) < p) + base
            row = np.searchsorted(ends, hit, side="right")
            a, b = u[row], first[row] + hit - (ends[row] - length[row])
            if at + 2 * len(hit) > len(keys):
                keys = np.resize(keys, 2 * (at + 2 * len(hit)))
            keys[at:at + 2 * len(hit)] = np.concatenate([a * n + b, b * n + a])
            at += 2 * len(hit)
    return _from_keys(n, keys[:at], community=community)


def sbm_sizes(n: int, fractions: Sequence[float]) -> list[int]:
    """Community sizes: floor(f_i * n), remainder into the last community."""
    sizes = [int(math.floor(f * n)) for f in fractions]
    sizes[-1] += n - sum(sizes)
    return sizes


def gen_sbm(n: int, fractions: Sequence[float], p, seed: SeedLike) -> FeaturedGraph:
    """Sample a stochastic block model with contiguous community blocks."""
    model = SbmModel(tuple(fractions), tuple(tuple(row) for row in np.asarray(p).tolist()))
    sizes = sbm_sizes(n, model.fractions)
    if min(sizes) < 0:
        raise ConfigError("fractions produce a negative community size")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.zeros(n, dtype=np.int64)
    for c, size in enumerate(sizes):
        labels[starts[c]:starts[c] + size] = c + 1
    rng = _as_rng(seed, "sbm", n)
    m = len(sizes)

    runs = []
    for a in range(m):
        for b in range(a, m):
            pab = model.p[a][b]
            if pab == 0.0 or sizes[a] == 0 or sizes[b] == 0:
                continue
            i = np.arange(sizes[a] - (a == b))
            if a == b:
                runs.append((starts[a] + i, starts[a] + i + 1,
                             sizes[a] - 1 - i, pab))
            else:
                runs.append((starts[a] + i, np.full(i.size, starts[b]),
                             np.full(i.size, sizes[b]), pab))

    return _bernoulli_graph(rng, n, runs, community=labels)


def bounded_draws(rng: np.random.Generator, block: int):
    """below(span) -> the int rng.integers(span) would return, call for
    call, for 0 < span < 2**32, read from a raw 32-bit stream drawn in
    blocks of `block` words.

    NumPy turns one 32-bit word x into a pick below span by Lemire's rule
    (arXiv:1805.10941): it keeps (x * span) >> 32 unless the low 32 bits
    of x * span fall below 2**32 mod span, and then rejects x and reads
    the next word. span = 1 reads no word and gives 0. Blocks of
    rng.integers(0, 2**32, dtype=np.uint32) read the same words in the
    same order, so the picks are identical; only the generator's state
    after the last pick differs, because the rest of the last block is
    spent. Spans of 2**32 and more take 64-bit words in NumPy, so callers
    keep below them.
    """

    def picks():
        words, at, pick, last = [], 0, None, None
        while True:
            span = yield pick
            if span == 1:
                pick = 0
                continue
            if span != last:
                last, skip = span, (2**32 - span) % span
            while True:
                if at == len(words):
                    words = rng.integers(0, 2**32, size=block,
                                         dtype=np.uint32).tolist()
                    at = 0
                x = words[at] * span
                at += 1
                if x & 0xFFFFFFFF >= skip:
                    break
            pick = x >> 32

    below = picks().send
    below(None)
    return below


def gen_ba(n: int, m: int, seed: SeedLike) -> FeaturedGraph:
    """Preferential attachment starting from a complete graph on m nodes.

    Each arriving node connects to m distinct existing nodes, picked with
    probability proportional to degree; duplicate picks are rejected and
    redrawn. Total edge count is always C(m,2) + (n-m)*m.

    Each pick is rng.integers(len(endpoints)), or rng.integers(t) at the
    m = 1 start, whose lone node has degree 0. bounded_draws makes those
    picks from a block-drawn word stream with NumPy's own rule, so the
    graph is bit for bit the one a per-pick rng.integers loop draws. The
    endpoint list stays below 2mn entries, hence the 2mn < 2**32 bound.
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    if n < m:
        raise ConfigError(f"n must be >= m, got n={n} m={m}")
    if 2 * m * n >= 2**32:
        raise ConfigError(f"BA graphs need 2mn < 2**32, got n={n} m={m}")
    rng = _as_rng(seed, "ba", n, m)
    # one block nearly always suffices: redrawn duplicates and rejected
    # words add under 1% to the (n - m) * m picks once n is in the thousands
    below = bounded_draws(rng, (n - m) * m * 33 // 32 + 64)
    # both ends of every edge in turn (u0, v0, u1, v1, ...); uniform draws
    # from this multiset are degree-proportional
    endpoints = [x for a in range(m) for b in range(a + 1, m) for x in (a, b)]
    for t in range(m, n):
        span = len(endpoints)
        chosen: set[int] = set()
        while len(chosen) < m:
            if span:
                chosen.add(endpoints[below(span)])
            else:
                # degenerate start (m=1): all degrees zero, attach uniformly
                chosen.add(below(t))
        for v in sorted(chosen):
            endpoints += (v, t)
    edges = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
    return from_edges(n, edges[:, 0], edges[:, 1])


def sample_graph(model: GraphModel, n: int, seed: SeedLike) -> FeaturedGraph:
    """Draw one graph from a model spec at size n."""
    if isinstance(model, ErModel):
        return gen_er(n, model.schedule, seed)
    if isinstance(model, SbmModel):
        return gen_sbm(n, model.fractions, model.p, seed)
    if isinstance(model, BaModel):
        return gen_ba(n, model.m, seed)
    raise ConfigError(f"unknown graph model {model!r}")


def draw_features(dist: FeatureDist, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, d) array of i.i.d. draws from a feature distribution."""
    d = feature_dim(dist)
    if isinstance(dist, Uniform01):
        return rng.random((count, d))
    if isinstance(dist, UniformRange):
        return dist.a + (dist.b - dist.a) * rng.random((count, d))
    if isinstance(dist, BernoulliFeatures):
        return (rng.random((count, d)) < dist.q).astype(np.float64)
    if isinstance(dist, ConstantFeatures):
        return np.full((count, d), float(dist.c))
    if isinstance(dist, PaddedFeatures):
        inner = draw_features(dist.base, count, rng)
        out = np.zeros((count, d))
        out[:, :inner.shape[1]] = inner
        return out
    raise ConfigError(f"unknown feature distribution {dist!r}")


def attach_features(graph: FeaturedGraph, dist: FeatureDist, seed: SeedLike) -> FeaturedGraph:
    """Draw i.i.d. features per node and coordinate; structure is shared."""
    rng = _as_rng(seed, "features")
    return graph.with_features(draw_features(dist, graph.n, rng))


# ---------------------------------------------------------------------------
# rooted neighborhoods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedGraph:
    """Induced subgraph with an ordered tuple of distinguished roots."""

    adj: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    radius: int

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def k(self) -> int:
        return len(self.roots)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def num_edges(self) -> int:
        return sum(len(row) for row in self.adj) // 2


def rooted_neighborhood(graph: FeaturedGraph, roots: Sequence[int], radius: int,
                        size_cap: Optional[int] = None) -> RootedGraph:
    """Induced subgraph on nodes within `radius` of any root.

    Roots come first in the local numbering (in their given order), then the
    remaining ball nodes by (distance, node id). With size_cap set, BFS
    aborts as soon as the ball exceeds it.
    """
    roots = [int(r) for r in roots]
    if len(set(roots)) != len(roots):
        raise ConfigError("roots must be distinct")
    for r in roots:
        if not (0 <= r < graph.n):
            raise ConfigError(f"root {r} out of range")
    if radius < 0:
        raise ConfigError("radius must be >= 0")
    dist = {r: 0 for r in roots}
    frontier = list(roots)
    for layer in range(1, radius + 1):
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u).tolist():
                if w not in dist:
                    dist[w] = layer
                    nxt.append(w)
                    if size_cap is not None and len(dist) > size_cap:
                        raise NeighborhoodTooLargeError(len(dist), size_cap)
        if not nxt:
            break
        frontier = nxt
    rest = sorted((v for v in dist if v not in set(roots)), key=lambda v: (dist[v], v))
    order = roots + rest
    local = {g: i for i, g in enumerate(order)}
    adj = []
    for g in order:
        row = sorted(local[w] for w in graph.neighbors(g).tolist() if w in dist)
        adj.append(tuple(row))
    return RootedGraph(adj=tuple(adj), roots=tuple(range(len(roots))), radius=radius)


# ---------------------------------------------------------------------------
# graph file round trip
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "aggterm-graph v1"


def write_graph(graph: FeaturedGraph, path) -> None:
    """Serialize to the line-oriented text format (17 significant digits)."""
    m = 0 if graph.community is None else int(graph.community.max())
    lines = [f"{_HEADER_PREFIX} n={graph.n} d={graph.d} communities={m}"]
    for u in range(graph.n):
        for v in graph.neighbors(u).tolist():
            if u < v:
                lines.append(f"{u} {v}")
    if graph.d > 0:
        for v in range(graph.n):
            vals = " ".join(f"{x:.17g}" for x in graph.features[v])
            lines.append(f"F {v} {vals}")
    if graph.community is not None:
        for v in range(graph.n):
            lines.append(f"C {v} {int(graph.community[v])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_graph(path) -> FeaturedGraph:
    """Parse the text format written by write_graph.

    Refuses what write_graph cannot write: a negative d or community
    count, a non-finite feature, a node without exactly one feature line
    (when d > 0) or, with communities, without exactly one label in
    1..communities.
    """
    with open(path) as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in raw if ln.strip()]
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ConfigError("not an aggterm graph file (bad header)")
    try:
        fields = dict(part.split("=", 1)
                      for part in lines[0][len(_HEADER_PREFIX):].split())
        n = int(fields["n"])
        d = int(fields["d"])
        m = int(fields["communities"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed graph header: {exc}") from exc
    if n < 1:
        raise ConfigError("graph file must have n >= 1")
    if d < 0 or m < 0:
        raise ConfigError("graph file must have d >= 0 and communities >= 0")
    us, vs = [], []
    seen = set()
    features = np.zeros((n, d))
    featured = np.zeros(n, dtype=bool)
    community = np.zeros(n, dtype=np.int64) if m > 0 else None
    for ln in lines[1:]:
        try:
            parts = ln.split()
            if parts[0] == "F":
                v = int(parts[1])
                vals = [float(x) for x in parts[2:]]
                if len(vals) != d or not (0 <= v < n) or featured[v] \
                        or not all(map(math.isfinite, vals)):
                    raise ConfigError(f"bad feature line: {ln!r}")
                features[v] = vals
                featured[v] = True
            elif parts[0] == "C":
                v, label = int(parts[1]), int(parts[2])
                if community is None or not (0 <= v < n) or community[v] \
                        or not (1 <= label <= m):
                    raise ConfigError(f"bad community line: {ln!r}")
                community[v] = label
            else:
                u, v = int(parts[0]), int(parts[1])
                if not (0 <= u < v < n):
                    raise ConfigError(f"bad edge line: {ln!r}")
                if (u, v) in seen:
                    raise ConfigError(f"duplicate edge: {ln!r}")
                seen.add((u, v))
                us.append(u)
                vs.append(v)
        except (ValueError, IndexError):
            raise ConfigError(f"malformed graph line: {ln!r}") from None
    if d > 0 and not featured.all():
        raise ConfigError(f"graph file lacks the feature line of node "
                          f"{int(np.argmin(featured))}")
    if community is not None and community.min() < 1:
        raise ConfigError("community labels must cover all nodes with labels >= 1")
    return from_edges(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                      features=features, community=community)

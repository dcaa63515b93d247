"""Monte-Carlo estimate containers and batch-mean error bars.

Both limit constructions report a point estimate together with a standard
error. The estimators are nonlinear (ratios of sample means, fed through
further function applications), so instead of propagating derivatives we
rerun the whole recursion on disjoint blocks of the random draws and take
the spread of the block estimates. For a plain sample mean this reduces to
the usual stderr; for ratios it agrees with the first-order delta method up
to O(1/m) while also covering arbitrary downstream compositions. McEngine
is the scaffold both constructions run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .errors import ConfigError, as_int
from .evaluate import Interpreter, reads_outer
from .graphs import FeatureDist, feature_dim
from .registry import FunctionRegistry
from .rng import stream
from .terms import Term

DEFAULT_BLOCKS = 10

# outer-sample rows processed at once by a nested aggregate
_CHUNK_ROWS = 1 << 18


@dataclass(frozen=True)
class ControllerValue:
    """Point estimate with per-coordinate standard error.

    truncated_mass is populated by the sparse construction only: the census
    mass dropped before renormalization (including neighborhoods over the
    size cap).
    """

    estimate: np.ndarray
    stderr: np.ndarray
    mc_samples: int
    truncated_mass: Optional[float] = None

    def __post_init__(self):
        est = np.asarray(self.estimate, dtype=np.float64)
        err = np.asarray(self.stderr, dtype=np.float64)
        if est.shape != err.shape:
            raise ConfigError("estimate and stderr must have matching shapes")
        if est.ndim != 1:
            raise ConfigError("controller values are flat vectors")
        if np.any(err < 0) or not np.all(np.isfinite(err)):
            raise ConfigError("stderr must be finite and nonnegative")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be >= 1")
        if self.truncated_mass is not None and not (0.0 <= self.truncated_mass <= 1.0):
            raise ConfigError("truncated mass must lie in [0, 1]")
        est.flags.writeable = False
        err.flags.writeable = False
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "stderr", err)


def block_slices(total: int, blocks: int = DEFAULT_BLOCKS) -> list:
    """Split range(total) into up to `blocks` contiguous nonempty runs."""
    if total < 2:
        raise ConfigError("need at least 2 samples to form error blocks")
    nb = min(blocks, total)
    edges = np.linspace(0, total, nb + 1).astype(np.int64)
    return [slice(int(edges[i]), int(edges[i + 1])) for i in range(nb)]


def batch_stderr(block_values: np.ndarray) -> np.ndarray:
    """Stderr of the pooled estimate from per-block estimates, shape (B, d)."""
    vals = np.asarray(block_values, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[0] < 2:
        raise ConfigError("need a (blocks, dim) array with >= 2 blocks")
    return np.std(vals, axis=0, ddof=1) / np.sqrt(vals.shape[0])


class McEngine(Interpreter):
    """Monte-Carlo scaffold shared by the dense and sparse limit engines.

    Holds one term's feature-draw pools and runs the term through the
    shared interpreter (evaluate.Interpreter) once on all draws and once
    per error block. A scope is (bindings, depth, chunks): what the
    engine binds its variables to, the nesting depth of aggregates around
    the node, and the outer-row offsets of the nested-aggregate chunks
    enclosing it. Subclasses supply _top, _feature, _rw, _local,
    _collapsed and _nested; _global picks between the last two. An
    aggregate whose body reads only its own binder (evaluate.reads_outer)
    is collapsed: computed once per run from one shared pool of
    mc_samples draws per nesting depth (and key) and broadcast. One whose
    body also reads outer variables is nested: each outer row gets
    inner_mc fresh draws. Streams are keyed (seed, kind, "pool", depth,
    *key) for pools and (seed, kind, "inner", depth, run tag, *key,
    *chunks, chunk offset) for inner draws, so reruns reproduce exactly
    while every outer sample, in every enclosing chunk, still gets
    independent inner draws, and the inner noise averages out across the
    run instead of being floored at 1/sqrt(inner_mc).
    """

    kind = ""  # first stream key after the seed: "dense" or "sparse"

    def __init__(self, term: Term, registry: FunctionRegistry,
                 dist: FeatureDist, draw: Callable, mc_samples: int,
                 seed: int, inner_mc: int):
        mc_samples = as_int(mc_samples, "mc_samples", 2)
        inner_mc = as_int(inner_mc, "inner_mc", 2)
        self.term = term
        self.registry = registry
        self.dist = dist
        self._draw = draw
        self.d = feature_dim(dist)
        self.mc = mc_samples
        self.seed = seed
        self.inner_mc = inner_mc
        self._pools: Dict[tuple, np.ndarray] = {}
        # per-run state
        self._sel: slice = slice(None)
        self._tag = "full"
        self._cache: Dict[tuple, np.ndarray] = {}

    def _pool(self, depth: int, key: tuple = (), count: int = 1) -> np.ndarray:
        """Shared (count, selected draws, d) pool for collapsed aggregates."""
        pool = self._pools.get((depth,) + key)
        if pool is None:
            rng = stream(self.seed, self.kind, "pool", depth, *key)
            pool = self._draw(self.dist, count * self.mc, rng).reshape(
                count, self.mc, self.d)
            pool.flags.writeable = False
            self._pools[(depth,) + key] = pool
        return pool[:, self._sel]

    def _inner_draws(self, scope: tuple, lo: int, slots: int, key: tuple = (),
                     count: int = 1) -> np.ndarray:
        """Fresh (count, slots, d) draws for the nested chunk at outer row lo."""
        _, depth, chunks = scope
        rng = stream(self.seed, self.kind, "inner", depth, self._tag, *key,
                     *chunks, lo)
        return self._draw(self.dist, count * slots, rng).reshape(
            count, slots, self.d)

    def _chunks(self, m: int) -> list:
        """(lo, hi) outer-row ranges of a nested aggregate."""
        step = max(1, _CHUNK_ROWS // self.inner_mc)
        return [(lo, min(m, lo + step)) for lo in range(0, m, step)]

    def _weight_arg(self, term, *args) -> Optional[np.ndarray]:
        """The aggregate's weight argument, or None under the map "one",
        which never reads it (so its inner draws are never made)."""
        if term.weight_map == "one":
            return None
        return self._eval(term.weight_arg, *args)

    def _inner_first(self, block: Optional[np.ndarray],
                     rows: int) -> Optional[np.ndarray]:
        """(rows * inner_mc, d) block of a nested chunk as an (inner_mc,
        rows, d) view: inner draws lead, so each outer row gets its own
        mean. None (an unread weight argument) stays None."""
        if block is None:
            return None
        return block.reshape(rows, self.inner_mc, self.d).swapaxes(0, 1)

    def _global(self, term, scope: tuple, shape: tuple,
                path: tuple) -> np.ndarray:
        if reads_outer(term):
            return self._nested(term, scope, shape, path)
        depth = scope[1]
        key = (term, depth)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._collapsed(term, depth, path)
        return np.broadcast_to(cached, shape)

    def run(self, sel: slice, tag, root) -> np.ndarray:
        """One pass of the recursion on the draws sel, tagged for reruns."""
        self._sel = sel
        self._tag = tag
        self._cache = {}
        return self._top(root)[0].copy()

    def estimate(self, root=None) -> ControllerValue:
        full = self.run(slice(None), "full", root)
        blocks = [self.run(sl, i, root)
                  for i, sl in enumerate(block_slices(self.mc))]
        return ControllerValue(estimate=full,
                               stderr=batch_stderr(np.stack(blocks)),
                               mc_samples=self.mc,
                               truncated_mass=self.truncated_mass())

    def truncated_mass(self) -> Optional[float]:
        return None

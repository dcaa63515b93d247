"""Return-probability encodings of random walks.

Entry i (1-based, i = 1..kmax) is the probability that a uniform random walk
of length i starting at v ends back at v. Isolated nodes get the zero vector.

All exact values come from walk_returns. With S = D^-1/2 A D^-1/2,
P^k[v, v] = S^k[v, v] = <S^a[v, :], S^b[v, :]> for a + b = k, so it steps
the rows of a block of sources only ceil(kmax/2) times, either as sorted
(source, node) triples expanded along the CSR and merged with a stable sort
(work follows the walks: sparse graphs) or as a dense (B, n) slab times a
dense S (work B n^2 per step: dense graphs). S is built by
graphs.dense_rows, the slab helper the evaluator's adjacency products use
too. The choice compares the two work estimates, both from the degrees,
so time grows smoothly with n. A block's expected triples, or its slab
entries, come to about graphs.BLOCK.
"""

from __future__ import annotations

import numpy as np

from . import graphs

# unused here; bench/workloads.py sizes its single-node rw tolerance by it
DEFAULT_WALKS = 100_000
# work in slab multiply-adds: one expanded triple costs about 3000 of them
# (2500 timed on one BLAS thread, 3500 on two), one dense S entry about 100
_TRIPLE_COST, _DENSE_ENTRY_COST = 3000.0, 100.0


def _triple_rows(indptr, indices, scale, sources, half):
    """Rows r_1..r_half of the block as (sorted keys source*n + node, values)."""
    n = len(scale)
    key = np.arange(len(sources), dtype=np.int64) * n + sources
    val = np.ones(len(sources))
    for _ in range(half):
        node = key % n
        counts = indptr[node + 1] - indptr[node]
        owner = np.repeat(np.arange(len(key)), counts)
        flat = graphs.flat_ranges(indptr[node], counts)
        new = key[owner] - node[owner] + indices[flat]
        # stable, so each source's summation order ignores its block
        order = np.argsort(new, kind="stable")
        new = new[order]
        first = np.flatnonzero(np.diff(new, prepend=-1))
        key = new[first]
        val = (np.add.reduceat((val * scale[node])[owner][order], first)
               * scale[key % n])
        yield key, val


def _triple_dot(x, y, count, n):
    """Per-source inner products of two triple rows of a count-source block."""
    (kx, vx), (ky, vy) = x, y
    pos = np.searchsorted(ky, kx)
    hit = np.append(ky, -1)[pos] == kx
    return np.bincount(kx[hit] // n, weights=vx[hit] * vy[pos[hit]],
                       minlength=count)


def _slab_rows(dense, sources, half):
    """Rows r_1..r_half of the block as dense (B, n) arrays."""
    rows = dense[sources]
    yield rows
    for _ in range(half - 1):
        rows = rows @ dense
        yield rows


def walk_returns(indptr: np.ndarray, indices: np.ndarray, sources,
                 kmax: int) -> np.ndarray:
    """(len(sources), kmax) matrix: entry [i, k-1] is P^k[v, v], v = sources[i].

    indptr/indices are the CSR adjacency of a simple undirected graph.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    deg = np.diff(indptr).astype(np.float64)
    n, nnz, half = len(deg), len(indices), (kmax + 1) // 2
    scale = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    # expected expansions per step: deg(v), then times the mean neighbor
    # degree per step, never more than the whole adjacency
    growth = (deg ** 2).sum() / max(nnz, 1)
    expand = np.minimum(nnz, deg[sources, None]
                        * growth ** np.arange(half)).sum(axis=1)
    slab_work = (n * n * (_DENSE_ENTRY_COST + len(sources) * max(half - 1, 0))
                 + len(sources) * n)
    if _TRIPLE_COST * expand.sum() <= slab_work:
        rows = lambda src: _triple_rows(indptr, indices, scale, src, half)
        dot, cost = _triple_dot, expand + 1.0
    else:
        owner = np.repeat(np.arange(n), np.diff(indptr))
        dense = graphs.dense_rows(indptr, indices, 0, n, scale[owner] * scale[indices])
        rows = lambda src: _slab_rows(dense, src, half)
        dot = lambda x, y, *_: np.einsum("ij,ij->i", x, y)
        cost = np.full(len(sources), float(n))
    out = np.zeros((len(sources), kmax))  # k = 1 stays 0: no self-loops
    for lo, hi in graphs.cost_blocks(cost, graphs.BLOCK):
        prev = None
        for t, cur in enumerate(rows(sources[lo:hi]), 1):
            if prev is not None:
                out[lo:hi, 2 * t - 2] = dot(prev, cur, hi - lo, n)
            if 2 * t <= kmax:
                out[lo:hi, 2 * t - 1] = dot(cur, cur, hi - lo, n)
            prev = cur
    return out


def rw_encoding(graph: graphs.FeaturedGraph, v: int, kmax: int) -> np.ndarray:
    """Length-kmax return-probability vector for node v, exact (walk_returns)."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not (isinstance(v, (int, np.integer)) and 0 <= v < graph.n):
        raise ValueError(f"node {v!r} is not an integer in [0, {graph.n})")
    if graph.degrees[v] == 0:
        return np.zeros(kmax)
    return walk_returns(graph.indptr, graph.indices, [v], kmax)[0]


def rw_encoding_all(graph: graphs.FeaturedGraph, kmax: int) -> np.ndarray:
    """(n, kmax) matrix of exact return probabilities for every node."""
    return walk_returns(graph.indptr, graph.indices, np.arange(graph.n), kmax)

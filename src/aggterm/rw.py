"""Return-probability encodings of random walks.

Entry i (1-based, i = 1..kmax) is the probability that a uniform random walk
of length i starting at v ends back at v. Isolated nodes get the zero vector.

All exact values come from walk_returns. With S = D^-1/2 A D^-1/2,
P^k[v, v] = S^k[v, v] = <S^a[v, :], S^b[v, :]> for a + b = k, so it steps
the rows of a block of sources only ceil(kmax/2) times, either as sorted
(source, node) triples expanded along the CSR and merged (work follows the
walks: sparse graphs) or densely from tiles of S (work n^2 per source and
step: dense graphs), rebuilding each tile's row slabs of graphs.BLOCK // n
rows from the CSR (graphs.dense_rows), so S is never held. Up to kmax = 4
one tile per pair of slabs gives every node's returns at half the
multiply-adds of stepping rows. The choice compares the two work estimates,
both from the degrees, so time grows smoothly with n. A block's expected
triples, or a slab, come to about graphs.BLOCK entries; the dense sums
follow the tiles, so their last bits depend on that budget.

The triples merge in a stable order, so each source's sums ignore its
block. One default sort of (key, position) packed into an int64 gives that
order at about a tenth of the cost of a stable sort. At odd kmax = 2h - 1
the triples plan need not build r_h: the last return <r_(h-1), r_(h-1) S>
sums r[u] S[u, w] r[w] over r_(h-1)'s own expansion, each pair u < w once
and doubled, since S is symmetric, with r[w] found by binary search. It
does so where the rows searched are short, judged from the degrees alone
(at kmax 3 whenever the mean neighbor degree is at most 128), so the bits
do not depend on the sources asked for or on the blocks.
"""

from __future__ import annotations

import numpy as np

from . import graphs

# unused here; bench/workloads.py sizes its single-node rw tolerance by it
DEFAULT_WALKS = 100_000
# work in tile multiply-adds (about 64 ps each on one BLAS thread): one
# expanded triple costs about 1000 of them (340-1380 timed at kmax 3-6),
# one built slab entry of S about 100
_TRIPLE_COST, _DENSE_ENTRY_COST = 1000.0, 100.0
# odd kmax = 2h - 1 closes the last return over r_(h-1) when growth^(h-1),
# about the entries of a source's r_(h-1) that the closure searches, is at
# most this: 1.2-1.9x faster than building r_h up to 121 on every ER and BA
# graph timed; above, 0.7-1.5x, slower on BA(3) from 246
_CLOSURE_ROWS = 128.0


def _stable_sort(keys):
    """(np.sort(keys), np.argsort(keys, kind="stable")) of an int64 array.

    Packs (key - min, position) into one int64 and sorts that with the
    default sort, about ten times faster than the stable one; keys too far
    apart to pack take the stable sort.
    """
    if len(keys) == 0:
        return keys, np.arange(0)
    lo = keys.min()
    bits = (len(keys) - 1).bit_length()
    if (int(keys.max()) - int(lo)) >> (63 - bits):
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = (keys - lo) << bits
    packed |= np.arange(len(keys))
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    packed += lo
    return packed, order


def _expand(indptr, indices, scale, key, val):
    """One unmerged CSR step of a row's triples: for each key (source, u) in
    turn and each neighbor w of u in CSR order, the key (source, w) and the
    index of (source, u); and each key's value times scale[u]."""
    n = len(scale)
    node = key % n
    counts = indptr[node + 1] - indptr[node]
    owner = np.repeat(np.arange(len(key)), counts)
    flat = graphs.flat_ranges(indptr[node], counts)
    return (key - node)[owner] + indices[flat], owner, val * scale[node]


def _triple_rows(indptr, indices, scale, sources, half):
    """Rows r_1..r_half of the block as (sorted keys source*n + node, values)."""
    n = len(scale)
    key = np.arange(len(sources), dtype=np.int64) * n + sources
    val = np.ones(len(sources))
    for _ in range(half):
        new, owner, weight = _expand(indptr, indices, scale, key, val)
        # stable, so each source's summation order ignores its block
        new, order = _stable_sort(new)
        first = np.flatnonzero(graphs.run_starts(new))
        key = new[first]
        val = np.add.reduceat(weight[owner[order]], first) * scale[key % n]
        yield key, val


def _triple_closure(indptr, indices, scale, row, count):
    """Per-source <r, r S> of a triple row r of a count-source block, from
    r's own expansion: each expanded (source, u -> w) adds r[u] S[u, w] r[w].
    S is symmetric with a zero diagonal, so it adds the pairs w > u twice."""
    key, val = row
    n = len(scale)
    new, owner, weight = _expand(indptr, indices, scale, key, val)
    up = np.flatnonzero(new > key[owner])
    new, owner = new[up], owner[up]
    hit, pos = _find(key, new)
    new = new[hit]
    return 2.0 * np.bincount(new // n, weights=weight[owner[hit]]
                             * scale[new % n] * val[pos], minlength=count)


def _find(keys, queries):
    """Indices of the queries found in the sorted keys, and their positions
    there."""
    pos = np.searchsorted(keys, queries)
    hit = np.flatnonzero(np.append(keys, -1)[pos] == queries)
    return hit, pos[hit]


def _triple_dot(x, y, count, n):
    """Per-source inner products of two triple rows of a count-source block."""
    (kx, vx), (ky, vy) = x, y
    if x is y:  # keys are unique, so each meets only itself
        return np.bincount(kx // n, weights=vx * vx, minlength=count)
    hit, pos = _find(ky, kx)
    return np.bincount(kx[hit] // n, weights=vx[hit] * vy[pos],
                       minlength=count)


def _tile_returns(slab, step, n, kmax):
    """Every node's returns up to kmax <= 4 from tiles S^2[a, b] = S[a] S[b]^T
    of the row slabs slab(lo) = S[lo:lo + step]. S^3[v, v] sums S^2[v, w]
    S[v, w] and S^4[v, v] sums S^2[v, w]^2, both symmetric, so a tile per
    pair of blocks a <= b adds its row sums to a and column sums to b."""
    out = np.zeros((n, 4))  # k = 1 stays 0: no self-loops
    for i in range(0, n, step):
        a = slab(i)
        out[i:i + step, 1] = np.einsum("ij,ij->i", a, a)
        for j in range(i, n, step) if kmax > 2 else ():
            t = a @ (slab(j) if j > i else a).T
            for k, part in ((2, t * a[:, j:j + step]), (3, t * t))[:kmax - 2]:
                out[i:i + step, k] += part.sum(axis=1)
                out[j:j + step, k] += part.sum(axis=0) if j > i else 0
    return out[:, :kmax]


def _tile_rows(slab, step, n, sources, half):
    """Rows r_1..r_half (half >= 2) of the block as dense (B, n) arrays.
    r_(t+1) sums r_t[:, c] S[c] over slabs c; the first sweep also fills r_1."""
    row = np.empty((len(sources), n))
    for t in range(1, half):
        nxt = np.zeros_like(row)
        for lo in range(0, n, step):
            s = slab(lo)
            if t == 1:
                row[:, lo:lo + step] = s[:, sources].T
            nxt += row[:, lo:lo + step] @ s
        yield from (row, nxt) if t == 1 else (nxt,)
        row = nxt


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
    # tile multiply-adds per n^2: n / 2 up to kmax 4, then B per step
    tiles = n / 2 if half == 2 else len(sources) * max(half - 1, 0)
    closure = False
    if _TRIPLE_COST * expand.sum() <= n * n * (_DENSE_ENTRY_COST + tiles):
        closure = (kmax % 2 == 1 and kmax > 1
                   and growth ** (half - 1) <= _CLOSURE_ROWS)
        rows = lambda src: _triple_rows(indptr, indices, scale, src,
                                        half - closure)
        dot, cost = _triple_dot, expand + 1.0
    else:
        weight = np.repeat(scale, np.diff(indptr)) * scale[indices]
        step = max(1, graphs.BLOCK // n)
        slab = lambda lo: graphs.dense_rows(indptr, indices, lo,
                                            min(lo + step, n), weight)
        if half <= 2:
            return _tile_returns(slab, step, n, kmax)[sources]
        rows = lambda src: _tile_rows(slab, step, n, src, half)
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
        if closure:
            out[lo:hi, kmax - 1] = _triple_closure(indptr, indices, scale,
                                                   prev, hi - lo)
    return out


def _check_kmax(kmax) -> None:
    if not isinstance(kmax, (int, np.integer)) or kmax < 1:
        raise ValueError(f"kmax must be an integer >= 1, got {kmax!r}")


def rw_encoding(graph: graphs.FeaturedGraph, v: int, kmax: int) -> np.ndarray:
    """Length-kmax return-probability vector for node v, exact (walk_returns)."""
    _check_kmax(kmax)
    if not (isinstance(v, (int, np.integer)) and 0 <= v < graph.n):
        raise ValueError(f"node {v!r} is not an integer in [0, {graph.n})")
    if graph.degrees[v] == 0:
        return np.zeros(kmax)
    return walk_returns(graph.indptr, graph.indices, [v], kmax)[0]


def rw_encoding_all(graph: graphs.FeaturedGraph, kmax: int) -> np.ndarray:
    """(n, kmax) matrix of exact return probabilities for every node."""
    _check_kmax(kmax)
    return walk_returns(graph.indptr, graph.indices, np.arange(graph.n), kmax)

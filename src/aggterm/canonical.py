"""Exact canonical codes for rooted subgraphs.

Two rooted subgraphs get the same code byte string if and only if there is an
isomorphism between them that maps the i-th root to the i-th root. Codes are
self-describing (root count, node count, full adjacency bitset under the
canonical labeling), so they can be decoded back into a graph.

Rooted forests (every component a tree holding a root) take the AHU
subtree encoding, computed for a whole batch of balls at once with NumPy
sorts (forest_codes); canonical_code runs it on a batch of one. Everything
else runs individualization plus color refinement with pruning by
discovered automorphisms, which keeps highly symmetric inputs (stars,
cliques) from blowing up the search. The header stores the root count in
one byte and the node count in two, so codes hold at most MAX_ROOTS roots
and MAX_SIZE_CAP nodes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NeighborhoodTooLargeError
from .graphs import RootedGraph, flat_ranges

DEFAULT_SIZE_CAP = 64
MAX_ROOTS = 255  # the code header holds the root count in one byte
MAX_SIZE_CAP = 65535  # and the node count in two
_MAGIC = b"RN1"


@dataclass(frozen=True)
class RootedNeighborhoodCode:
    code: bytes
    k: int
    radius: int


# ---------------------------------------------------------------------------
# refinement-based search (general case)
# ---------------------------------------------------------------------------


def _refine(adj, colors):
    """Equitable refinement; new color ids are assigned in signature order."""
    n = len(adj)
    while True:
        sigs = [(colors[v], tuple(sorted([colors[w] for w in adj[v]])))
                for v in range(n)]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _edge_bytes(adj, labeling):
    """Upper-triangle adjacency bits of the relabeled graph, row-major:
    pair (i, j), i < j, is bit i*n - i*(i+1)/2 + j - i - 1."""
    n = len(labeling)
    where = [0] * n
    for i, v in enumerate(labeling):
        where[v] = i
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    for v, row in enumerate(adj):
        i = where[v]
        for w in row:
            j = where[w]
            if i < j:
                pos = i * n - i * (i + 1) // 2 + j - i - 1
                bits[pos >> 3] |= 1 << (pos & 7)
    return bytes(bits)


class _Search:
    def __init__(self, adj):
        self.adj = adj
        self.best_code = None
        self.best_labeling = None
        self.first_code = None
        self.first_labeling = None
        self.gens: list[tuple[int, ...]] = []
        # global orbit partition; a generator is kept only when it merges
        # something here, which bounds the list at n-1 informative entries
        self._orbit = list(range(len(adj)))

    def run(self, colors):
        self._visit(colors, [])
        return self.best_labeling

    def _gfind(self, x):
        orbit = self._orbit
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    def _maybe_gen(self, ref_labeling, labeling):
        n = len(labeling)
        sigma = [0] * n
        for i in range(n):
            sigma[ref_labeling[i]] = labeling[i]
        merged = False
        for w in range(n):
            a, b = self._gfind(w), self._gfind(sigma[w])
            if a != b:
                self._orbit[a] = b
                merged = True
        if merged:
            self.gens.append(tuple(sigma))

    def _visit(self, colors, path):
        colors = _refine(self.adj, colors)
        n = len(colors)
        ncolors = max(colors) + 1
        cells = [[] for _ in range(ncolors)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            labeling = [0] * n
            for v, c in enumerate(colors):
                labeling[c] = v
            code = _edge_bytes(self.adj, labeling)
            if self.first_code is None:
                self.first_code = code
                self.first_labeling = labeling
            elif code == self.first_code:
                self._maybe_gen(self.first_labeling, labeling)
            if self.best_code is None or code < self.best_code:
                self.best_code = code
                self.best_labeling = labeling
            elif code == self.best_code and labeling is not self.best_labeling:
                self._maybe_gen(self.best_labeling, labeling)
            return
        # orbit pruning: skip candidates equivalent to an earlier one under an
        # automorphism that fixes every individualized vertex on this path
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def absorb(g):
            if all(g[p] == p for p in path):
                for w in range(n):
                    rw_, rg = find(w), find(g[w])
                    if rw_ != rg:
                        parent[rw_] = rg

        scanned = 0
        tried_roots = set()
        cv = colors[target[0]]
        for v in target:
            # generators found deeper in the search prune later siblings too
            while scanned < len(self.gens):
                absorb(self.gens[scanned])
                scanned += 1
            root = find(v)
            if root in tried_roots:
                continue
            tried_roots.add(root)
            child = []
            for w, c in enumerate(colors):
                if c < cv or w == v:
                    child.append(c)
                elif c == cv:
                    child.append(c + 1)
                else:
                    child.append(c + 1)
            self._visit(child, path + [v])


# ---------------------------------------------------------------------------
# twin reduction
# ---------------------------------------------------------------------------


def _twin_reduce(adj_mask, colors):
    """Collapse classes of same-colored vertices with identical neighborhoods.

    Vertices sharing an open neighborhood (false twins, necessarily
    non-adjacent) or a closed neighborhood (true twins, pairwise adjacent)
    are interchangeable by automorphisms, so the search only needs one
    representative; class size and twin kind fold into the quotient color.
    Rounds alternate the two kinds until nothing merges. Returns
    (classes, masks, colors) for the quotient, where classes[i] lists the
    original vertices behind quotient vertex i.
    """
    classes = [[v] for v in range(len(adj_mask))]
    cur_mask = list(adj_mask)
    cur_colors = list(colors)
    changed = True
    while changed and len(classes) > 1:
        changed = False
        for closed in (False, True):
            m = len(classes)
            groups = {}
            for i in range(m):
                key = (cur_colors[i], cur_mask[i] | ((1 << i) if closed else 0))
                groups.setdefault(key, []).append(i)
            if all(len(g) == 1 for g in groups.values()):
                continue
            changed = True
            drop = set()
            for g in groups.values():
                rep = g[0]
                for other in g[1:]:
                    drop.add(other)
                    # concatenate, never sort: merged classes are blocks of
                    # equal size whose members are only interchangeable while
                    # each block stays contiguous in the final ordering
                    classes[rep] = classes[rep] + classes[other]
            keep = [i for i in range(m) if i not in drop]
            remap = {old: new for new, old in enumerate(keep)}
            new_mask = []
            for i in keep:
                mask = 0
                row = cur_mask[i]
                for j in keep:
                    if j != i and (row >> j) & 1:
                        mask |= 1 << remap[j]
                new_mask.append(mask)
            new_classes = [classes[i] for i in keep]
            keys = [(cur_colors[i], len(new_classes[pos]), closed)
                    for pos, i in enumerate(keep)]
            order = {key: pos for pos, key in enumerate(sorted(set(keys)))}
            cur_colors = [order[key] for key in keys]
            cur_mask = new_mask
            classes = new_classes
    return classes, cur_mask, cur_colors


# ---------------------------------------------------------------------------
# rooted forests, many balls at once
# ---------------------------------------------------------------------------


def _offsets(groups: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exclusive running sums of x, restarted wherever the sorted groups
    array changes value."""
    run = np.cumsum(x) - x
    if not len(x):
        return run
    first = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    return run - np.repeat(run[first], np.diff(np.r_[first, len(x)]))


def _forest_positions(sizes, roots, src, dst):
    """Canonical positions in a batch of rooted balls laid out as for
    forest_codes, and which of the balls are forests.

    Returns (forest, pos): forest[b] says whether ball b is a forest with
    a root in every component, and for those balls pos[v] is node v's
    canonical position within its ball. Roots take
    positions 0..k-1; the other nodes follow in pre-order over the
    components, taken in order of their first root, and each node's
    children are visited in order of their subtree codes. A subtree's code
    is (root position or -1, its children's codes sorted): AHU tree
    encoding (Aho, Hopcroft & Ullman 1974), computed as dense ranks level
    by level, bottom-up, with no loop over balls.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64).reshape(len(sizes), -1)
    nballs, k = roots.shape
    total = int(sizes.sum())
    ball = np.repeat(np.arange(nballs), sizes)
    mark = np.full(total, -1, dtype=np.int64)
    mark[roots.ravel()] = np.tile(np.arange(k), nballs)
    deg = np.bincount(src, minlength=total)
    arc0 = np.cumsum(deg) - deg
    # root each component at its first root: BFS from root j where the
    # BFS from roots 0..j-1 did not reach
    depth = np.full(total, -1, dtype=np.int64)
    parent = np.full(total, -1, dtype=np.int64)
    for j in range(k):
        front = roots[:, j][depth[roots[:, j]] < 0]
        depth[front] = 0
        level = 0
        while len(front):
            level += 1
            near = dst[flat_ranges(arc0[front], deg[front])]
            via = np.repeat(front, deg[front])
            fresh = depth[near] < 0
            # a node reached twice in one level closes a cycle; keep one
            front, pick = np.unique(near[fresh], return_index=True)
            depth[front] = level
            parent[front] = via[fresh][pick]
    comps = np.bincount(ball[depth == 0], minlength=nballs)
    reached = np.bincount(ball[depth >= 0], minlength=nballs)
    edges = np.bincount(ball[src], minlength=nballs) // 2
    forest = (reached == sizes) & (edges == sizes - comps)

    order = np.flatnonzero(depth >= 0)
    order = order[np.argsort(depth[order], kind="stable")]
    cuts = np.searchsorted(depth[order], np.arange(depth.max(initial=0) + 2))
    levels = [order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    # bottom-up: equal ranks within a level mean equal subtree codes
    rank = np.zeros(total, dtype=np.int64)
    below = (mark < 0).astype(np.int64)  # non-root nodes per subtree
    row_of = np.zeros(total, dtype=np.int64)
    for d in range(len(levels) - 1, -1, -1):
        nodes = levels[d]
        kids = levels[d + 1] if d + 1 < len(levels) else nodes[:0]
        row_of[nodes] = np.arange(len(nodes))
        row = row_of[parent[kids]]
        by = np.lexsort((rank[kids], row))
        kids, row = kids[by], row[by]
        count = np.bincount(row, minlength=len(nodes))
        col = np.arange(len(kids)) - (np.cumsum(count) - count)[row]
        # one column per node: root position, then sorted child ranks
        # padded with -1, so a prefix sorts first as in tuple order
        keys = np.full((count.max(initial=0) + 1, len(nodes)), -1,
                       dtype=np.int64)
        keys[0] = mark[nodes]
        keys[col + 1, row] = rank[kids]
        by = np.lexsort(keys[::-1])
        step = np.any(np.diff(keys[:, by], axis=1) != 0, axis=0)
        rank[nodes[by]] = np.r_[0, np.cumsum(step)]
        np.add.at(below, parent[kids], below[kids])
    # top-down: pre-order positions from subtree sizes; siblings of equal
    # rank are isomorphic, so their order does not change the code
    start = np.zeros(total, dtype=np.int64)  # pre-order count on arrival
    tops = levels[0][np.lexsort((mark[levels[0]], ball[levels[0]]))]
    start[tops] = k + _offsets(ball[tops], below[tops])
    sib = np.flatnonzero(depth > 0)
    sib = sib[np.lexsort((rank[sib], parent[sib]))]
    start[sib] = _offsets(parent[sib], below[sib])
    for nodes in levels[1:]:
        up = parent[nodes]
        start[nodes] += start[up] + (mark[up] < 0)
    return forest, np.where(mark >= 0, mark, start)


def forest_codes(sizes, roots, src, dst) -> list:
    """Canonical codes of a batch of rooted balls: bytes for each ball that
    is a forest with a root in every component, None for the others.

    Ball b owns the next sizes[b] nodes of one global numbering, roots[b]
    lists its roots (global ids) in order, and (src, dst) holds every arc
    in both directions, sorted by src. A forest ball's code equals
    canonical_code's for the same rooted graph.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64).reshape(len(sizes), -1)
    forest, pos = _forest_positions(sizes, roots, src, dst)
    ball = np.repeat(np.arange(len(sizes)), sizes)[src]
    i, j = pos[src], pos[dst]
    keep = (i < j) & forest[ball]
    i, j, ball = i[keep], j[keep], ball[keep]
    n = sizes[ball]
    nbytes = (sizes * (sizes - 1) // 2 + 7) // 8
    byte0 = np.cumsum(nbytes) - nbytes
    # bit of pair (i, j), i < j, in the row-major upper triangle
    bits = np.zeros(8 * int(nbytes.sum()), dtype=bool)
    bits[8 * byte0[ball] + i * n - i * (i + 1) // 2 + j - i - 1] = True
    body = np.packbits(bits, bitorder="little").tobytes()
    sizes = sizes.tolist()
    head = {size: _header(roots.shape[1], size) for size in set(sizes)}
    return [head[size] + body[lo:lo + nb] if ok else None
            for ok, size, lo, nb in zip(forest.tolist(), sizes,
                                        byte0.tolist(), nbytes.tolist())]


def _as_batch(rg: RootedGraph):
    """rg as a batch of one ball for forest_codes / _forest_positions."""
    deg = [len(row) for row in rg.adj]
    src = np.repeat(np.arange(rg.n), deg)
    dst = np.fromiter((w for row in rg.adj for w in row), dtype=np.int64,
                      count=len(src))
    return [rg.n], np.array(rg.roots, dtype=np.int64), src, dst


# ---------------------------------------------------------------------------
# public api
# ---------------------------------------------------------------------------


def check_code_limits(k: int, size_cap: int) -> None:
    """Raise ConfigError unless codes can hold k roots and size_cap nodes:
    the code header stores k in one byte and the node count in two."""
    if k > MAX_ROOTS:
        raise ConfigError(f"root count must be <= {MAX_ROOTS}, got {k}")
    if size_cap > MAX_SIZE_CAP:
        raise ConfigError(f"size cap must be <= {MAX_SIZE_CAP}, got {size_cap}")


def _check(rg: RootedGraph, size_cap: int) -> None:
    if rg.n > size_cap:
        raise NeighborhoodTooLargeError(rg.n, size_cap)
    if len(set(rg.roots)) != len(rg.roots):
        raise ConfigError("roots must be distinct")


def _may_be_forest(rg: RootedGraph) -> bool:
    # a forest on n >= 1 nodes has at most n - 1 edges; the empty graph
    # is a forest too
    return rg.num_edges() < max(rg.n, 1)


def _search_labeling(rg: RootedGraph) -> list[int]:
    k = rg.k
    colors = [k] * rg.n
    for i, r in enumerate(rg.roots):
        colors[r] = i
    adj_mask = [0] * rg.n
    for v, row in enumerate(rg.adj):
        for w in row:
            adj_mask[v] |= 1 << w
    classes, q_mask, q_colors = _twin_reduce(adj_mask, colors)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * rg.n + 100))
    try:
        if len(classes) < rg.n:
            q_adj = [[j for j in range(len(classes)) if (q_mask[i] >> j) & 1]
                     for i in range(len(classes))]
            q_lab = _Search(q_adj).run(q_colors)
            labeling = []
            for pos in range(len(classes)):
                labeling.extend(classes[q_lab[pos]])
            return labeling
        adj = [list(row) for row in rg.adj]
        return _Search(adj).run(colors)
    finally:
        sys.setrecursionlimit(old_limit)


def _header(k: int, n: int) -> bytes:
    return _MAGIC + bytes([k]) + n.to_bytes(2, "big")


def canonical_labeling(rg: RootedGraph, size_cap: int = DEFAULT_SIZE_CAP) -> list[int]:
    """Position -> vertex map; the i-th root always lands at position i."""
    _check(rg, size_cap)
    if _may_be_forest(rg):
        forest, pos = _forest_positions(*_as_batch(rg))
        if forest[0]:
            return np.argsort(pos).tolist()
    return _search_labeling(rg)


def canonical_code(rg: RootedGraph, size_cap: int = DEFAULT_SIZE_CAP) -> RootedNeighborhoodCode:
    """Canonical byte string for the rooted-isomorphism class of rg."""
    check_code_limits(rg.k, size_cap)
    _check(rg, size_cap)
    code = forest_codes(*_as_batch(rg))[0] if _may_be_forest(rg) else None
    if code is None:
        body = _edge_bytes(rg.adj, _search_labeling(rg))
        code = _header(rg.k, rg.n) + body
    return RootedNeighborhoodCode(code=code, k=rg.k, radius=rg.radius)


def decode_code(code: bytes) -> RootedGraph:
    """Rebuild the canonically labeled rooted graph from its code."""
    if code[:3] != _MAGIC:
        raise ConfigError("not a rooted-neighborhood code")
    k = code[3]
    n = int.from_bytes(code[4:6], "big")
    bits = code[6:]
    adj: list[list[int]] = [[] for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (bits[pos >> 3] >> (pos & 7)) & 1:
                adj[i].append(j)
                adj[j].append(i)
            pos += 1
    # radius: how far the ball actually extends from the roots
    dist = {r: 0 for r in range(k)}
    frontier = list(range(k))
    radius = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    radius = max(radius, dist[w])
                    nxt.append(w)
        frontier = nxt
    return RootedGraph(adj=tuple(tuple(sorted(row)) for row in adj),
                       roots=tuple(range(k)), radius=radius)

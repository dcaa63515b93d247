"""Exact canonical codes for rooted subgraphs.

Two rooted subgraphs get the same code byte string if and only if there is an
isomorphism between them that maps the i-th root to the i-th root. Codes are
self-describing (root count, node count, full adjacency bitset under the
canonical labeling), so they can be decoded back into a graph.

Every code comes from one batch path, ball_codes; canonical_code and
canonical_labeling run it on a batch of one, and the census on all balls
of a sampled graph. Rooted forests (every component a tree holding a
root) take the AHU subtree encoding, computed level by level with NumPy
sorts. Balls with a cycle go through one NumPy twin reduction and one
NumPy color refinement for the whole batch, which assigns ids in
_refine's signature order. A ball whose quotient coloring is then
discrete is labeled by it, and one that a single batched
individualization settles takes the child with the smallest code, as the
search would. Only the rest run individualization plus color refinement
(_Search) on their reduced quotient, with pruning by discovered
automorphisms, which keeps highly symmetric inputs from blowing up the
search. Codes are canonical, so they do not depend on how a batch
numbers a ball's nodes. The header stores the root count in one byte
and the node count in two, so codes hold at most MAX_ROOTS roots and
MAX_SIZE_CAP nodes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NeighborhoodTooLargeError
from .graphs import RootedGraph, flat_ranges, run_starts

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
# rooted forests, many balls at once
# ---------------------------------------------------------------------------


def _offsets(groups: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exclusive running sums of x, restarted wherever the sorted groups
    array changes value."""
    run = np.cumsum(x) - x
    first = np.flatnonzero(run_starts(groups))
    return run - np.repeat(run[first], np.diff(np.r_[first, len(x)]))


def _forest_positions(sizes, roots, src, dst):
    """Canonical positions in a batch of rooted balls laid out as for
    ball_codes, and which of the balls are forests.

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
            by = np.argsort(near[fresh])
            near, via = near[fresh][by], via[fresh][by]
            # a node reached twice in one level closes a cycle; keep one
            first = run_starts(near)
            front = near[first]
            depth[front] = level
            parent[front] = via[first]
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


# ---------------------------------------------------------------------------
# balls with cycles, many at once
# ---------------------------------------------------------------------------


def _list_ranks(head, owner, vals):
    """Dense ranks of the items' (head[i], list i) pairs in the order
    Python sorts (head, tuple) pairs, and the items in that order.

    List i holds vals[owner == i]; owner is sorted, and vals are >= 0 and
    ascend within each item. Lists are read `per` entries at a time as one
    int64 word, entry + 1 in each bit field and 0 past the end, so a
    prefix sorts first. One sort groups equal (head, first word) pairs;
    only runs that still tie and still hold entries read the next word,
    so a long list costs nothing unless it ties.
    """
    n = len(head)
    deg = np.bincount(owner, minlength=n)
    first = np.cumsum(deg) - deg
    place = np.arange(len(vals)) - first[owner]
    bits = int(vals.max(initial=0) + 1).bit_length()
    per = 63 // bits
    filled = deg > 0

    def word(s):
        field = place - s * per
        inside = (field >= 0) & (field < per)
        part = np.where(inside, (vals + 1) << (bits * (per - 1 - field)
                                               * inside), 0)
        out = np.zeros(n, dtype=np.int64)
        if len(vals):
            out[filled] = np.bitwise_or.reduceat(part, first[filled])
        return out

    w = word(0)
    order = np.argsort(w)
    order = order[np.argsort(head[order], kind="stable")]
    cut = np.r_[True, (np.diff(head[order]) != 0) | (np.diff(w[order]) != 0)]
    for s in range(1, int(deg.max(initial=0) + per - 1) // per):
        run = np.cumsum(cut) - 1
        deep = np.zeros(run[-1] + 1, dtype=bool)
        deep[run[deg[order] > s * per]] = True
        at = np.flatnonzero(deep[run] & (np.bincount(run)[run] > 1))
        if not len(at):
            break
        items = order[at]
        w = word(s)[items]
        by = np.lexsort((w, run[at]))
        order[at] = items[by]
        cut[at[1:]] |= np.diff(w[by]) != 0
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(cut) - 1
    return rank, order


def _per_ball(rank, ball):
    """Global dense ranks whose order puts ball first (ball sorted) as
    dense ranks within each ball."""
    starts = np.flatnonzero(run_starts(ball))
    return rank - np.repeat(np.minimum.reduceat(rank, starts),
                            np.diff(np.r_[starts, len(ball)]))


def _sorted_lists(owner, vals, width):
    """(owner, vals) arcs as lists: sorted by owner, vals ascending."""
    key = np.sort(owner * width + vals)
    return key // width, key % width


def _twin_quotient(ball, color, src, dst, width):
    """Collapse same-colored vertices with identical neighborhoods, in all
    balls at once.

    Vertices sharing an open neighborhood (false twins, non-adjacent) or
    a closed one (true twins, pairwise adjacent) are interchangeable by
    automorphisms, so the search only needs one representative of each
    class. Rounds alternate open and closed until two in a row merge
    nothing; after a round that merges, every ball's quotient is
    recolored by rank of (color, class size), which changes nothing in a
    ball that did not merge, so equal colors mean equally built classes.
    Returns the quotient (ball, color, size, arcs) and, per original
    vertex, its class and its offset in the class: a merged group's
    classes take consecutive blocks, so a class's internal edges depend
    only on its color.
    """
    cls = np.arange(len(ball))
    off = np.zeros(len(ball), dtype=np.int64)
    size = np.ones(len(ball), dtype=np.int64)
    quiet, closed = 0, False
    while quiet < 2:
        nq = len(ball)
        local = np.arange(nq) - np.searchsorted(ball, ball)
        owner, near = src, local[dst]
        if closed:
            owner, near = np.r_[owner, np.arange(nq)], np.r_[near, local]
        grp, order = _list_ranks(ball * width + color,
                                 *_sorted_lists(owner, near, width))
        closed = not closed
        ngrp = int(grp.max(initial=-1)) + 1
        if ngrp == nq:
            quiet += 1
            continue
        quiet = 0
        member = np.empty(nq, dtype=np.int64)
        member[order] = _offsets(grp[order], np.ones(nq, dtype=np.int64))
        off += member[cls] * size[cls]
        cls = grp[cls]
        lead = order[run_starts(grp[order])]
        size = np.bincount(grp, weights=size, minlength=ngrp).astype(np.int64)
        ball, color = ball[lead], color[lead]
        key = (ball * width + color) * width + size
        by = np.argsort(key)
        rank = np.empty(ngrp, dtype=np.int64)
        rank[by] = np.cumsum(run_starts(key[by])) - 1
        color = _per_ball(rank, ball)
        arcs = grp[src] * ngrp + grp[dst]
        arcs = np.sort(arcs[grp[src] != grp[dst]])
        arcs = arcs[run_starts(arcs)]
        src, dst = arcs // ngrp, arcs % ngrp
    return ball, color, size, src, dst, cls, off


def _refine_batch(ball, color, src, dst, width):
    """Equitable refinement of every ball, ids within each ball assigned
    in _refine's order: by (color, sorted neighbor colors) as Python
    tuples. A ball whose partition stops splitting keeps its ids from
    then on, so each round refines only the balls the last one split."""
    color = color.copy()
    live = np.ones(int(ball[-1]) + 1, dtype=bool)
    index = np.empty(len(ball), dtype=np.int64)
    while True:
        nodes = np.flatnonzero(live[ball])
        if not len(nodes):
            return color
        index[nodes] = np.arange(len(nodes))
        arcs = live[ball[src]]
        part = ball[nodes]
        new = _per_ball(_list_ranks(
            part * width + color[nodes],
            *_sorted_lists(index[src[arcs]], color[dst[arcs]], width))[0],
            part)
        live[:] = False
        live[part[new != color[nodes]]] = True
        color[nodes] = new


def _first_branch(ball, color, src, dst, width, first, tied):
    """Labels of the tied balls that one individualization settles.

    In every tied ball, each vertex of the first cell holding two or more
    vertices is individualized in turn, as _Search's root does, and all
    these children are refined in one batch. Where every child of a ball
    comes out discrete, _Search would return the child with the smallest
    quotient code: the children it prunes repeat the codes of children it
    keeps. Returns those balls and, for each of their quotient vertices,
    its position.
    """
    nq = np.diff(first)
    is_tied = np.zeros(len(nq), dtype=bool)
    is_tied[tied] = True
    key = ball * width + color
    held = np.sort(key[is_tied[ball]])
    twice = held[1:][held[1:] == held[:-1]]
    cells = twice[run_starts(twice // width)]
    pick = np.flatnonzero(np.isin(key, cells))
    parent = ball[pick]
    # each child is a copy of its ball's quotient, pick[c] individualized
    size = nq[parent]
    base = np.cumsum(size) - size
    vert = flat_ranges(first[parent], size)
    child = np.repeat(np.arange(len(pick)), size)
    shade = color[vert]
    shade = shade + ((shade >= color[pick][child]) & (vert != pick[child]))
    rows = np.searchsorted(src, first)
    arcs = rows[parent + 1] - rows[parent]
    arc = flat_ranges(rows[parent], arcs)
    shift = np.repeat(base - first[parent], arcs)
    csrc, cdst = src[arc] + shift, dst[arc] + shift
    shade = _refine_batch(child, shade, csrc, cdst, width)
    discrete = np.maximum.reduceat(shade, base) + 1 == size
    settled = np.flatnonzero(is_tied & (np.bincount(
        parent, weights=~discrete, minlength=len(nq)) == 0))
    i, j = shade[csrc], shade[cdst]
    bodies = _edge_bits(size, child[csrc][i < j], i[i < j], j[i < j])
    lo = np.searchsorted(parent, settled)
    hi = np.searchsorted(parent, settled, side="right")
    best = np.array([min(range(a, b), key=bodies.__getitem__)
                     for a, b in zip(lo.tolist(), hi.tolist())], dtype=np.int64)
    at = flat_ranges(base[best], size[best])
    return settled, vert[at], shade[at]


def _cyclic_positions(sizes, roots, src, dst):
    """Canonical position of every node in a batch of rooted balls of any
    shape, laid out as for ball_codes.

    One twin reduction and one color refinement run over all balls. A
    ball whose quotient coloring is then discrete is labeled by it; so is
    one that a single batched individualization settles (_first_branch).
    The others go one at a time to the refinement search on their
    quotient. Quotient vertices then take consecutive blocks of positions,
    in label order.
    """
    nballs, k = roots.shape
    ball = np.repeat(np.arange(nballs), sizes)
    color = np.full(len(ball), k, dtype=np.int64)
    color[roots.ravel()] = np.tile(np.arange(k), nballs)
    width = int(sizes.max()) + 1
    qball, qcolor, qsize, qsrc, qdst, cls, off = _twin_quotient(
        ball, color, src, dst, width)
    qcolor = _refine_batch(qball, qcolor, qsrc, qdst, width)
    first = np.searchsorted(qball, np.arange(nballs + 1))
    tied = np.flatnonzero(
        np.maximum.reduceat(qcolor, first[:-1]) + 1 < np.diff(first))
    if len(tied):
        settled, vert, label = _first_branch(qball, qcolor, qsrc, qdst,
                                             width, first, tied)
        qcolor[vert] = label
        tied = tied[~np.isin(tied, settled)]
    if len(tied):
        rows = np.searchsorted(qsrc, np.arange(len(qball) + 1)).tolist()
        near = (qdst - first[qball[qdst]]).tolist()
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * width + 100))
        try:
            for b in tied.tolist():
                lo, hi = int(first[b]), int(first[b + 1])
                adj = [near[rows[q]:rows[q + 1]] for q in range(lo, hi)]
                label = _Search(adj).run(qcolor[lo:hi].tolist())
                qcolor[lo + np.array(label)] = np.arange(hi - lo)
        finally:
            sys.setrecursionlimit(old_limit)
    order = np.lexsort((qcolor, qball))
    start = np.empty(len(qball), dtype=np.int64)
    start[order] = _offsets(qball[order], qsize[order])
    return start[cls] + off


def _positions(sizes, roots, src, dst):
    """Canonical position of every node within its ball, for a batch laid
    out as for ball_codes: forests by their AHU codes, the other balls by
    twin reduction, refinement and, where that leaves ties, search."""
    sizes = np.asarray(sizes, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64).reshape(len(sizes), -1)
    forest, pos = _forest_positions(sizes, roots, src, dst)
    if forest.all():
        return pos
    cyclic = ~forest
    ball = np.repeat(np.arange(len(sizes)), sizes)
    nodes = np.flatnonzero(cyclic[ball])
    local = np.full(len(ball), -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    arcs = cyclic[ball[src]]
    pos[nodes] = _cyclic_positions(sizes[cyclic], local[roots[cyclic]],
                                   local[src[arcs]], local[dst[arcs]])
    return pos


def _edge_bits(sizes, ball, i, j) -> list:
    """Code bodies of a batch of graphs: for graph b, the upper-triangle
    adjacency bits, pair (i, j), i < j, at bit i*n - i*(i+1)/2 + j - i - 1
    of a row-major, little-endian bit string (as _edge_bytes writes them),
    given every edge (ball[e], i[e], j[e]) with i < j."""
    n = sizes[ball]
    nbytes = (sizes * (sizes - 1) // 2 + 7) // 8
    byte0 = np.cumsum(nbytes) - nbytes
    bits = np.zeros(8 * int(nbytes.sum()), dtype=bool)
    bits[8 * byte0[ball] + i * n - i * (i + 1) // 2 + j - i - 1] = True
    body = np.packbits(bits, bitorder="little").tobytes()
    return [body[lo:lo + nb] for lo, nb in zip(byte0.tolist(), nbytes.tolist())]


def ball_codes(sizes, roots, src, dst) -> list:
    """Canonical codes (bytes) of a batch of rooted balls.

    Ball b owns the next sizes[b] nodes of one global numbering, roots[b]
    lists its roots (global ids) in order, and (src, dst) holds every arc
    in both directions, sorted by src. Each code equals canonical_code's
    for the same rooted graph; the node numbering inside a ball does not
    change it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64).reshape(len(sizes), -1)
    pos = _positions(sizes, roots, src, dst)
    ball = np.repeat(np.arange(len(sizes)), sizes)[src]
    i, j = pos[src], pos[dst]
    bodies = _edge_bits(sizes, ball[i < j], i[i < j], j[i < j])
    head = {size: _header(roots.shape[1], size) for size in set(sizes.tolist())}
    return [head[size] + body for size, body in zip(sizes.tolist(), bodies)]


def _as_batch(rg: RootedGraph):
    """rg as a batch of one ball for ball_codes / _positions."""
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


def _header(k: int, n: int) -> bytes:
    return _MAGIC + bytes([k]) + n.to_bytes(2, "big")


def canonical_labeling(rg: RootedGraph, size_cap: int = DEFAULT_SIZE_CAP) -> list[int]:
    """Position -> vertex map; the i-th root always lands at position i."""
    _check(rg, size_cap)
    return np.argsort(_positions(*_as_batch(rg))).tolist()


def canonical_code(rg: RootedGraph, size_cap: int = DEFAULT_SIZE_CAP) -> RootedNeighborhoodCode:
    """Canonical byte string for the rooted-isomorphism class of rg."""
    check_code_limits(rg.k, size_cap)
    _check(rg, size_cap)
    return RootedNeighborhoodCode(code=ball_codes(*_as_batch(rg))[0], k=rg.k,
                                  radius=rg.radius)


def code_counts(code: bytes) -> tuple[int, int, int]:
    """(nodes, edges, degree of the first root) read off a code without
    decoding it: the body's bit p is pair p of the row-major upper
    triangle, so pairs (0, j) are its first n - 1 bits."""
    if code[:3] != _MAGIC:
        raise ConfigError("not a rooted-neighborhood code")
    n = int.from_bytes(code[4:6], "big")
    body = int.from_bytes(code[6:], "little")
    return n, body.bit_count(), (body & ((1 << n - 1) - 1)).bit_count()


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

"""Canonical codes: isomorphism invariance and soundness on hard pairs."""

import numpy as np
import pytest

from aggterm.canonical import (ball_codes, canonical_code, canonical_labeling,
                               decode_code)
from aggterm.errors import ConfigError, NeighborhoodTooLargeError
from aggterm.graphs import RootedGraph, rooted_neighborhood
from conftest import as_batch, oracle_code, rand_graph, tree_code


def rooted(adj, k=1, radius=3):
    return RootedGraph(adj=tuple(tuple(sorted(r)) for r in adj),
                       roots=tuple(range(k)), radius=radius)


def permute(rg: RootedGraph, perm) -> RootedGraph:
    """Relabel non-root nodes by perm (which must fix the roots)."""
    adj = [()] * rg.n
    for v, row in enumerate(rg.adj):
        adj[perm[v]] = tuple(sorted(perm[u] for u in row))
    return RootedGraph(adj=tuple(adj), roots=rg.roots, radius=rg.radius)


def cycle(n):
    return [( (i - 1) % n, (i + 1) % n ) for i in range(n)]


def test_code_invariant_under_relabeling():
    rng = np.random.default_rng(77)
    for trial in range(60):
        g = rand_graph(rng, 14, 1)
        k = int(rng.integers(1, min(3, g.n) + 1))
        rg = rooted_neighborhood(g, list(range(k)), 2)
        base = canonical_code(rg).code
        for _ in range(3):
            perm = np.concatenate([np.arange(k),
                                   k + rng.permutation(rg.n - k)])
            assert canonical_code(permute(rg, perm)).code == base


def test_roots_are_distinguished():
    # path a-b: rooted at the end vs rooted at both nodes in each order
    p = rooted([[1], [0, 2], [1]], k=1)
    q = RootedGraph(adj=p.adj, roots=(0, 1), radius=p.radius)
    assert canonical_code(p).code != canonical_code(q).code


def test_root_order_matters():
    # path 0-1-2 rooted (end, middle) vs (middle, end)
    adj = ((1,), (0, 2), (1,))
    a = RootedGraph(adj=adj, roots=(0, 1), radius=2)
    badj = ((1, 2), (0,), (0,))  # same path renumbered: middle first
    b = RootedGraph(adj=badj, roots=(0, 1), radius=2)
    assert canonical_code(a).code != canonical_code(b).code


def test_two_regular_pair_distinguished():
    c6 = rooted(cycle(6))
    two_triangles = rooted([[1, 2], [0, 2], [0, 1],
                            [4, 5], [3, 5], [3, 4]])
    assert canonical_code(c6).code != canonical_code(two_triangles).code


def test_three_regular_pair_distinguished():
    # K33 and the triangular prism: both 3-regular on 6 nodes
    k33 = rooted([[3, 4, 5], [3, 4, 5], [3, 4, 5],
                  [0, 1, 2], [0, 1, 2], [0, 1, 2]])
    prism = rooted([[1, 2, 3], [0, 2, 4], [0, 1, 5],
                    [0, 4, 5], [1, 3, 5], [2, 3, 4]])
    assert canonical_code(k33).code != canonical_code(prism).code


def test_exhaustive_soundness_n5():
    """Codes on all rooted graphs with 5 nodes agree exactly with brute force.

    Two graphs get the same code iff some root-fixing permutation maps one
    to the other.
    """
    from itertools import combinations, permutations
    pairs = list(combinations(range(5), 2))
    rng = np.random.default_rng(5)
    masks = rng.choice(1 << len(pairs), size=60, replace=False)
    graphs = []
    for mask in masks:
        adj = [[] for _ in range(5)]
        for bit, (i, j) in enumerate(pairs):
            if (int(mask) >> bit) & 1:
                adj[i].append(j)
                adj[j].append(i)
        graphs.append(rooted(adj))

    def brute_iso(a, b):
        for perm in permutations(range(1, 5)):
            p = (0,) + perm
            if all(tuple(sorted(p[u] for u in a.adj[v])) == b.adj[p[v]]
                   for v in range(5)):
                return True
        return False

    codes = [canonical_code(g).code for g in graphs]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            same = codes[i] == codes[j]
            assert same == brute_iso(graphs[i], graphs[j]), (i, j)


def test_decode_round_trip():
    rng = np.random.default_rng(78)
    for _ in range(40):
        g = rand_graph(rng, 12, 1)
        rg = rooted_neighborhood(g, [0], 2)
        code = canonical_code(rg)
        back = decode_code(code.code)
        assert back.k == rg.k and back.n == rg.n
        assert back.num_edges() == rg.num_edges()
        assert canonical_code(back).code == code.code


def test_labeling_is_permutation():
    rng = np.random.default_rng(79)
    g = rand_graph(rng, 15, 1)
    rg = rooted_neighborhood(g, [0, 1], 2)
    lab = canonical_labeling(rg)
    assert sorted(lab) == list(range(rg.n))
    assert lab[0] == 0 and lab[1] == 1  # roots keep their slots
    check_labeling(rg, canonical_code(rg).code)


def test_size_cap():
    big = rooted([[j for j in range(40) if j != i] for i in range(40)])
    with pytest.raises(NeighborhoodTooLargeError):
        canonical_code(big, size_cap=20)


def test_code_header_limits():
    # one byte of root count and two of node count in the code header
    many = RootedGraph(adj=((),) * 256, roots=tuple(range(256)), radius=0)
    with pytest.raises(ConfigError, match="root count"):
        canonical_code(many, size_cap=300)
    with pytest.raises(ConfigError, match="size cap"):
        canonical_code(rooted([[1], [0]]), size_cap=65536)
    assert canonical_code(rooted([[1], [0]]), size_cap=65535).code


def random_forest(rng, n, k):
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        if rng.random() < 0.85:
            u = int(rng.integers(v))
            adj[u].append(v)
            adj[v].append(u)
    roots = tuple(int(r) for r in rng.choice(n, size=k, replace=False))
    return RootedGraph(adj=tuple(tuple(sorted(r)) for r in adj), roots=roots,
                       radius=3)


def test_forest_codes_match_reference():
    # one ball at a time through canonical_code, and all balls in one batch
    rng = np.random.default_rng(80)
    graphs = []
    for _ in range(300):
        n = int(rng.integers(1, 20))
        graphs.append(random_forest(rng, n, int(rng.integers(1, min(n, 3) + 1))))
    refs = [tree_code(rg) for rg in graphs]
    assert sum(ref is not None for ref in refs) > 100
    for rg, ref in zip(graphs, refs):
        if ref is not None:
            assert canonical_code(rg).code == ref
            lab = canonical_labeling(rg)
            assert lab[:rg.k] == list(rg.roots)
            assert sorted(lab) == list(range(rg.n))
    for k in (1, 2, 3):
        batch = [rg for rg in graphs if rg.k == k]
        # a forest with a rootless component codes as any other graph
        assert ball_codes(*as_batch(batch)) == [oracle_code(rg) for rg in batch]


# ---------------------------------------------------------------------------
# balls with cycles: the batch against the one-ball reference


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def clique(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def wheel(n):
    # hub 0 on a rim cycle 1..n
    return n + 1, [(0, i) for i in range(1, n + 1)] + [
        (i, i % n + 1) for i in range(1, n + 1)]


def star_with_leaf_edges(n, pairs):
    return n, [(0, i) for i in range(1, n)] + pairs


def cycle_with_twin_pendants(n):
    # two leaves on node 0 and two on node 2: two pairs of false twins
    return n + 4, [(i, (i + 1) % n) for i in range(n)] + [
        (0, n), (0, n + 1), (2, n + 2), (2, n + 3)]


TWIN_HEAVY = [
    complete_bipartite(2, 2), complete_bipartite(2, 3),
    complete_bipartite(2, 5),
    clique(3), clique(4), clique(6), wheel(5), wheel(6),
    star_with_leaf_edges(7, [(1, 2), (3, 4)]),
    star_with_leaf_edges(6, [(1, 2), (2, 3), (1, 3)]),
    cycle_with_twin_pendants(5), cycle_with_twin_pendants(6),
    # a 3-regular pair on six nodes: K_{3,3} and the prism
    complete_bipartite(3, 3),
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4),
         (2, 5)]),
]
# the Frucht graph, 3-regular with no automorphism: beside its roots,
# refinement cannot split it, and each node individualized gives its own
# code, so the batch must keep the smallest as the search does
FRUCHT = [(i, (i + 1) % 12) for i in range(12)] + [
    (0, 7), (1, 11), (2, 10), (3, 5), (4, 9), (6, 8)]


def shape(n, edges, roots):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return RootedGraph(adj=tuple(tuple(sorted(r)) for r in adj),
                       roots=tuple(int(r) for r in roots), radius=3)


def check_labeling(rg, code):
    """canonical_labeling keeps the roots first, is a permutation, and
    relabeling rg by it gives the graph the code decodes to."""
    lab = canonical_labeling(rg)
    assert lab[:rg.k] == list(rg.roots)
    assert sorted(lab) == list(range(rg.n))
    where = [0] * rg.n
    for p, v in enumerate(lab):
        where[v] = p
    assert tuple(tuple(sorted(where[w] for w in rg.adj[lab[p]]))
                 for p in range(rg.n)) == decode_code(code).adj


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cyclic_batch_matches_one_ball_reference(k):
    rng = np.random.default_rng(90 + k)
    batch = [shape(n, edges, rng.choice(n, size=k, replace=False))
             for n, edges in TWIN_HEAVY + [(12, FRUCHT)] for _ in range(4)]
    batch.append(shape(12 + k, FRUCHT, range(12, 12 + k)))
    batch += [random_forest(rng, int(rng.integers(k, 15)), k)
              for _ in range(20)]
    batch = [batch[i] for i in rng.permutation(len(batch))]
    refs = [oracle_code(rg) for rg in batch]
    assert ball_codes(*as_batch(batch)) == refs
    for rg, ref in zip(batch, refs):
        assert canonical_code(rg).code == ref
        check_labeling(rg, ref)


"""Shared helpers: random AST and random graph generators."""

import numpy as np

from aggterm.graphs import from_edges
from aggterm.terms import (Apply, Const, Feature, GcnAgg, GlobalWMean,
                           LocalWMean, Rw)

WEIGHT_MAPS = ("one", "exp", "softplus")
FN_UNARY = ("relu", "sigmoid", "exp", "softplus", "softmax", "one")
FN_BINARY = ("add", "sub", "hadamard", "dot_scaled")


def rand_const(rng, d):
    if rng.random() < 0.3:
        return Const((float(rng.integers(-3, 4)),) * d)
    vals = rng.uniform(-2.0, 2.0, size=d)
    if rng.random() < 0.2:
        vals = vals * 10.0 ** float(rng.integers(-8, 9))
    return Const(tuple(float(x) for x in vals))


def rand_term(rng, d, scope=(), depth=0, max_depth=4):
    """A random well-formed term over the default registry.

    Closed when scope is empty: node-dependent leaves and local binders
    only appear under some binder. Binder names are fresh with respect to
    the enclosing scope, so no shadowing is ever generated.
    """
    choices = ["const"]
    if scope:
        choices += ["feat", "feat", "rw"]
    if depth < max_depth:
        choices += ["apply1", "apply2", "global", "global"]
        if scope:
            choices += ["local", "local", "gcn"]
    kind = choices[int(rng.integers(len(choices)))]

    def sub(extra=(), bump=1):
        return rand_term(rng, d, scope + tuple(extra), depth + bump, max_depth)

    if kind == "const":
        return rand_const(rng, d)
    if kind == "feat":
        return Feature(scope[int(rng.integers(len(scope)))])
    if kind == "rw":
        return Rw(scope[int(rng.integers(len(scope)))],
                  int(rng.integers(1, 7)))
    if kind == "apply1":
        return Apply(FN_UNARY[int(rng.integers(len(FN_UNARY)))], (sub(),))
    if kind == "apply2":
        return Apply(FN_BINARY[int(rng.integers(len(FN_BINARY)))],
                     (sub(), sub()))
    fresh = f"v{len(scope)}"
    if kind == "global":
        value = sub((fresh,))
        wmap = WEIGHT_MAPS[int(rng.integers(len(WEIGHT_MAPS)))]
        warg = value if rng.random() < 0.5 else sub((fresh,))
        return GlobalWMean(fresh, value, wmap, warg)
    anchor = scope[int(rng.integers(len(scope)))]
    if kind == "gcn":
        return GcnAgg(fresh, anchor, sub((fresh,)))
    value = sub((fresh,))
    wmap = WEIGHT_MAPS[int(rng.integers(len(WEIGHT_MAPS)))]
    warg = value if rng.random() < 0.5 else sub((fresh,))
    return LocalWMean(fresh, anchor, value, wmap, warg)


def rand_graph(rng, nmax, d, ensure_isolated=False):
    """Small ER-style graph with uniform features in [-1, 1]."""
    n = int(rng.integers(2, nmax + 1))
    p = float(rng.uniform(0.05, 0.6))
    iu = np.triu_indices(n, 1)
    sel = rng.random(len(iu[0])) < p
    u, v = iu[0][sel], iu[1][sel]
    if ensure_isolated:
        keep = (u != 0) & (v != 0)
        u, v = u[keep], v[keep]
    feats = rng.uniform(-1.0, 1.0, size=(n, d))
    return from_edges(n, u, v, feats)


def csr_by_divmod(n, u, v):
    """Reference CSR of unique edges (u < v): one sort-and-divmod pass over
    concatenated arc keys, the construction graphs.from_edges must equal."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    src, dst = np.divmod(np.sort(np.concatenate([u * n + v, v * n + u])), n)
    counts = np.bincount(src, minlength=n)
    return np.concatenate([[0], np.cumsum(counts)]), dst


def path_graph(feats):
    """Path 0-1-...-(n-1) with the given (n, d) features."""
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    u = np.arange(n - 1)
    return from_edges(n, u, u + 1, feats)


def star_graph(feats):
    """Node 0 joined to 1..n-1."""
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    return from_edges(n, np.zeros(n - 1, dtype=int), np.arange(1, n), feats)


def tree_code(rg):
    """Reference code of a rooted forest, one ball at a time in Python.

    Roots take positions 0..k-1; the other nodes follow in pre-order over
    the components, taken in order of their first root, each node's
    children in order of their nested (root position or -1, sorted child
    encodings) tuples. None when some component has a cycle or no root.
    """
    from itertools import combinations

    n, k = rg.n, rg.k
    root_pos = {v: i for i, v in enumerate(rg.roots)}
    comp = [-1] * n
    tops = []
    for v in range(n):
        if comp[v] >= 0:
            continue
        members, stack = [v], [v]
        comp[v] = v
        while stack:
            for w in rg.adj[stack.pop()]:
                if comp[w] < 0:
                    comp[w] = v
                    members.append(w)
                    stack.append(w)
        marks = sorted(root_pos[w] for w in members if w in root_pos)
        edges = sum(len(rg.adj[w]) for w in members) // 2
        if not marks or edges != len(members) - 1:
            return None
        tops.append(marks[0])
    enc = {}

    def encode(v, parent):
        enc[v] = (root_pos.get(v, -1),
                  tuple(sorted(encode(w, v) for w in rg.adj[v] if w != parent)))
        return enc[v]

    order = []

    def emit(v, parent):
        if v not in root_pos:
            order.append(v)
        for w in sorted((w for w in rg.adj[v] if w != parent),
                        key=lambda w: enc[w]):
            emit(w, v)

    for mark in sorted(tops):
        encode(rg.roots[mark], -1)
        emit(rg.roots[mark], -1)
    where = {v: p for p, v in enumerate(list(rg.roots) + order)}
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    pair = {ij: t for t, ij in enumerate(combinations(range(n), 2))}
    for v, row in enumerate(rg.adj):
        for w in row:
            i, j = where[v], where[w]
            if i < j:
                t = pair[(i, j)]
                bits[t >> 3] |= 1 << (t & 7)
    return b"RN1" + bytes([k]) + n.to_bytes(2, "big") + bytes(bits)


def twin_reduce(adj_mask, colors):
    """Reference twin reduction of one graph given as neighbor bitmasks.

    Vertices of one color sharing an open neighborhood (false twins) or a
    closed one (true twins) merge into one quotient vertex; rounds
    alternate the two kinds until nothing merges, and a round that merges
    recolors the quotient by rank of (color, class size). Returns
    (classes, masks, colors) for the quotient; classes[i] lists the
    original vertices behind quotient vertex i, merged blocks kept
    contiguous.
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


def search_code(rg):
    """Reference code of any rooted graph, one ball at a time in Python:
    twin_reduce, then the refinement search on the quotient, then the
    original graph's edge bits under the expanded labeling."""
    import sys

    from aggterm.canonical import _edge_bytes, _Search

    k = rg.k
    colors = [k] * rg.n
    for i, r in enumerate(rg.roots):
        colors[r] = i
    adj_mask = [0] * rg.n
    for v, row in enumerate(rg.adj):
        for w in row:
            adj_mask[v] |= 1 << w
    classes, q_mask, q_colors = twin_reduce(adj_mask, colors)
    q_adj = [[j for j in range(len(classes)) if (q_mask[i] >> j) & 1]
             for i in range(len(classes))]
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * rg.n + 100))
    try:
        q_lab = _Search(q_adj).run(q_colors)
    finally:
        sys.setrecursionlimit(old_limit)
    labeling = [v for pos in q_lab for v in classes[pos]]
    body = _edge_bytes([list(row) for row in rg.adj], labeling)
    return b"RN1" + bytes([k]) + rg.n.to_bytes(2, "big") + body


def oracle_code(rg):
    """The code canonical_code gave before codes were batched: tree_code
    for rooted forests, search_code for everything else."""
    code = tree_code(rg)
    return search_code(rg) if code is None else code


def as_batch(graphs):
    """(sizes, roots, src, dst) laying rooted graphs out as one batch for
    canonical.ball_codes; every graph needs the same root count."""
    first = np.cumsum([0] + [rg.n for rg in graphs])
    src = np.concatenate([np.repeat(np.arange(rg.n) + base,
                                    [len(r) for r in rg.adj])
                          for rg, base in zip(graphs, first)])
    dst = np.concatenate([np.array([w for r in rg.adj for w in r],
                                   dtype=np.int64) + base
                          for rg, base in zip(graphs, first)])
    roots = np.array([[r + base for r in rg.roots]
                      for rg, base in zip(graphs, first)])
    return [rg.n for rg in graphs], roots, src, dst


def gen_ba_per_pick(n, m, seed):
    """Reference preferential attachment: one rng.integers call per pick,
    the sampler graphs.gen_ba must reproduce bit for bit."""
    from aggterm.graphs import _as_rng

    rng = _as_rng(seed, "ba", n, m)
    us, vs = [], []
    endpoints = []
    for a in range(m):
        for b in range(a + 1, m):
            us.append(a)
            vs.append(b)
            endpoints.append(a)
            endpoints.append(b)
    for t in range(m, n):
        chosen = set()
        while len(chosen) < m:
            if endpoints:
                v = endpoints[int(rng.integers(len(endpoints)))]
            else:
                v = int(rng.integers(t))
            chosen.add(v)
        for v in sorted(chosen):
            us.append(v)
            vs.append(t)
            endpoints.append(v)
            endpoints.append(t)
    return from_edges(n, np.array(us, dtype=np.int64),
                      np.array(vs, dtype=np.int64))
